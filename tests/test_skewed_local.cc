/**
 * @file
 * Unit tests for the skewed per-address (pskew) predictor.
 */

#include <gtest/gtest.h>

#include "core/skewed_predictor.hh"
#include "predictors/local_two_level.hh"
#include "sim/driver.hh"
#include "sim/factory.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "workloads/presets.hh"

namespace bpred
{
namespace
{

/**
 * pskew: 2^@p bht_bits local histories of @p local_bits feeding
 * @p banks skewed banks of 2^@p bank_bits counters.
 */
SkewedPredictor::Config
pskewConfig(unsigned bht_bits, unsigned local_bits, unsigned banks,
            unsigned bank_bits,
            UpdatePolicy policy = UpdatePolicy::Partial)
{
    SkewedPredictor::Config config;
    config.bhtIndexBits = bht_bits;
    config.historyBits = local_bits;
    config.numBanks = banks;
    config.bankIndexBits = bank_bits;
    config.updatePolicy = policy;
    return config;
}

TEST(SkewedLocal, LearnsShortLocalPattern)
{
    SkewedPredictor predictor(pskewConfig(8, 8, 3, 8));
    const Addr pc = 0x40;
    const bool pattern[3] = {true, true, false};
    int wrong = 0;
    for (int i = 0; i < 600; ++i) {
        const bool outcome = pattern[i % 3];
        if (i >= 300) {
            wrong += predictor.predict(pc) != outcome;
        }
        predictor.update(pc, outcome);
    }
    EXPECT_EQ(wrong, 0);
}

TEST(SkewedLocal, RejectsBadGeometry)
{
    EXPECT_THROW(SkewedPredictor(pskewConfig(8, 8, 2, 8)), FatalError);
    EXPECT_THROW(SkewedPredictor(pskewConfig(8, 0, 3, 8)), FatalError);
    EXPECT_THROW(SkewedPredictor(pskewConfig(8, 17, 3, 8)), FatalError);
    // No scheme feeds local histories to an address-indexed bank 0 or
    // to shared-hysteresis banks.
    SkewedPredictor::Config enhanced = pskewConfig(8, 8, 3, 8);
    enhanced.indexing = BankIndexing::Enhanced;
    EXPECT_THROW(SkewedPredictor{enhanced}, FatalError);
    SkewedPredictor::Config shared = pskewConfig(8, 8, 3, 8);
    shared.storage = BankStorage::SharedHysteresis;
    EXPECT_THROW(SkewedPredictor{shared}, FatalError);
}

TEST(SkewedLocal, StorageAccountsBhtAndBanks)
{
    SkewedPredictor::Config config = pskewConfig(10, 8, 3, 9);
    config.counterBits = 2;
    SkewedPredictor predictor(config);
    EXPECT_EQ(predictor.storageBits(),
              1024u * 8 + 3u * 512 * 2);
}

TEST(SkewedLocal, Name)
{
    SkewedPredictor predictor(pskewConfig(10, 8, 3, 12));
    EXPECT_EQ(predictor.name(), "pskew-1Kx8-3x4K");
}

TEST(SkewedLocal, NameCarriesTotalUpdate)
{
    // Partial and partial-lazy share a name: they predict alike, and
    // pskew snapshots no write count. Total predicts differently.
    EXPECT_EQ(makePredictor("pskew:10:8:3:12:total")->name(),
              "pskew-1Kx8-3x4K-total");
    EXPECT_EQ(makePredictor("pskew:10:8:3:12:partial")->name(),
              "pskew-1Kx8-3x4K");
    EXPECT_EQ(makePredictor("pskew:10:8:3:12:partial-lazy")->name(),
              "pskew-1Kx8-3x4K");
}

TEST(SkewedLocal, TotalSnapshotDoesNotLoadIntoPartial)
{
    const Trace trace = makeIbsTrace("groff", 0.005);
    auto total = makePredictor("pskew:10:8:3:12:total");
    simulate(*total, trace);
    std::string bytes;
    savePredictorState(*total, bytes);
    auto partial = makePredictor("pskew:10:8:3:12");
    EXPECT_THROW(loadPredictorState(*partial, bytes), FatalError);
    auto lazy = makePredictor("pskew:10:8:3:12:partial-lazy");
    std::string partial_bytes;
    savePredictorState(*partial, partial_bytes);
    EXPECT_NO_THROW(loadPredictorState(*lazy, partial_bytes));
}

TEST(SkewedLocal, ResetForgets)
{
    SkewedPredictor predictor(pskewConfig(6, 4, 3, 6));
    for (int i = 0; i < 30; ++i) {
        predictor.update(0x10, true);
    }
    EXPECT_TRUE(predictor.predict(0x10));
    predictor.reset();
    EXPECT_FALSE(predictor.predict(0x10));
}

/**
 * Drive one alternating branch (next = !last) and one
 * double-alternating branch (T,T,N,N,...). With a 2-bit local
 * history they realize *different* history->outcome functions that
 * collide on history values 01 and 10 with opposite answers:
 * PAg's shared pattern entries ping-pong; pskew mixes the address
 * into the bank indices and separates them.
 */
template <typename P>
int
runConflictPair(P &predictor)
{
    const Addr a = 0x100;
    const Addr b = 0x104;
    int wrong = 0;
    for (int i = 0; i < 800; ++i) {
        const bool score = i >= 400;
        const bool a_outcome = i % 2 == 0;          // T N T N
        const bool b_outcome = (i % 4) < 2;         // T T N N
        wrong += score && predictor.predict(a) != a_outcome;
        predictor.update(a, a_outcome);
        wrong += score && predictor.predict(b) != b_outcome;
        predictor.update(b, b_outcome);
    }
    return wrong;
}

TEST(SkewedLocal, SeparatesDestructivePatternConflicts)
{
    LocalTwoLevelPredictor pag(8, 2);
    SkewedPredictor pskew(pskewConfig(8, 2, 3, 6));
    const int pag_wrong = runConflictPair(pag);
    const int pskew_wrong = runConflictPair(pskew);
    EXPECT_EQ(pskew_wrong, 0);
    EXPECT_GT(pag_wrong, 100);
}

TEST(SkewedLocal, WinsOnConflictHeavyWorkload)
{
    // Scale the conflict pair up: many branch pairs with clashing
    // history->outcome functions, randomly interleaved. This is
    // the regime the skewing technique targets (destructive
    // pattern-table interference).
    // 2-bit local history: the alternating sites live on history
    // values {01, 10} and the double-alternating sites visit all
    // four values — the classes overlap on 01/10 with opposite
    // outcomes, so PAg's four shared pattern entries thrash.
    LocalTwoLevelPredictor pag(10, 2);
    SkewedPredictor pskew(pskewConfig(10, 2, 3, 9));
    Rng rng(77);
    std::vector<u32> phase(256, 0);

    int pag_wrong = 0;
    int pskew_wrong = 0;
    for (int i = 0; i < 60000; ++i) {
        const u32 site = static_cast<u32>(rng.uniformInt(256));
        const Addr pc = 0x1000 + 4 * site;
        // Half the sites alternate, half double-alternate.
        const u32 p = phase[site]++;
        const bool outcome =
            site % 2 == 0 ? p % 2 == 0 : (p % 4) < 2;
        const bool score = i >= 20000;
        pag_wrong += score && pag.predict(pc) != outcome;
        pag.update(pc, outcome);
        pskew_wrong += score && pskew.predict(pc) != outcome;
        pskew.update(pc, outcome);
    }
    EXPECT_LT(pskew_wrong, pag_wrong);
}

TEST(SkewedLocal, PagSharingWinsWhenAliasingIsConstructive)
{
    // The honest flip side (recorded in EXPERIMENTS.md): on our
    // IBS-like workloads most same-history branches agree, so
    // PAg's shared pattern table generalizes across branches and
    // the address-mixing of pskew costs more capacity than its
    // conflict removal recovers. Pin down that finding so it is
    // not silently lost.
    const Trace trace = makeIbsTrace("nroff", 0.02);
    LocalTwoLevelPredictor pag(10, 10);
    SkewedPredictor pskew(pskewConfig(10, 10, 3, 10));
    const double pag_rate = simulate(pag, trace).mispredictRatio();
    const double pskew_rate =
        simulate(pskew, trace).mispredictRatio();
    EXPECT_LT(pag_rate, pskew_rate);
    // ...but pskew stays in a sane range (not catastrophically off).
    EXPECT_LT(pskew_rate, pag_rate * 2.5);
}

} // namespace
} // namespace bpred
