/**
 * @file
 * Unit tests for the gskewed / e-gskew predictor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/skewed_predictor.hh"
#include "predictors/bank_vote.hh"
#include "support/logging.hh"

namespace bpred
{
namespace
{

SkewedPredictor::Config
smallConfig()
{
    SkewedPredictor::Config config;
    config.numBanks = 3;
    config.bankIndexBits = 6;
    config.historyBits = 4;
    config.counterBits = 2;
    config.updatePolicy = UpdatePolicy::Partial;
    return config;
}

TEST(SkewedPredictor, RejectsEvenBankCount)
{
    SkewedPredictor::Config config = smallConfig();
    config.numBanks = 2;
    EXPECT_THROW(SkewedPredictor{config}, FatalError);
    config.numBanks = 0;
    EXPECT_THROW(SkewedPredictor{config}, FatalError);
    config.numBanks = 7; // beyond the skewing family
    EXPECT_THROW(SkewedPredictor{config}, FatalError);
}

TEST(SkewedPredictor, GeometryAccessors)
{
    SkewedPredictor predictor(smallConfig());
    EXPECT_EQ(predictor.numBanks(), 3u);
    EXPECT_EQ(predictor.entriesPerBank(), 64u);
    EXPECT_EQ(predictor.totalEntries(), 192u);
    EXPECT_EQ(predictor.storageBits(), 192u * 2);
}

TEST(SkewedPredictor, NameEncodesConfig)
{
    SkewedPredictor predictor(3, 12, 8, UpdatePolicy::Partial);
    EXPECT_EQ(predictor.name(), "gskewed-3x4K-h8-partial");

    SkewedPredictor total(3, 12, 8, UpdatePolicy::Total);
    EXPECT_EQ(total.name(), "gskewed-3x4K-h8-total");

    SkewedPredictor enhanced(makeEnhancedConfig(12, 11));
    EXPECT_EQ(enhanced.name(), "e-gskew-3x4K-h11-partial");
}

TEST(SkewedPredictor, ColdPredictsNotTaken)
{
    SkewedPredictor predictor(smallConfig());
    EXPECT_FALSE(predictor.predict(0x100));
}

TEST(SkewedPredictor, LearnsBiasedBranch)
{
    SkewedPredictor predictor(smallConfig());
    const Addr pc = 0x200;
    // Each update shifts the 4-bit history, so the trained
    // (address, history) context changes until the history
    // saturates at all-taken; train long enough to revisit the
    // saturated context repeatedly.
    for (int i = 0; i < 12; ++i) {
        predictor.predict(pc);
        predictor.update(pc, true);
    }
    EXPECT_TRUE(predictor.predict(pc));
}

TEST(SkewedPredictor, LearnsHistoryCorrelatedBranch)
{
    SkewedPredictor predictor(smallConfig());
    const Addr pc = 0x400;
    bool outcome = false;
    int wrong = 0;
    for (int i = 0; i < 400; ++i) {
        outcome = !outcome;
        if (i >= 200) {
            wrong += predictor.predict(pc) != outcome;
        } else {
            predictor.predict(pc);
        }
        predictor.update(pc, outcome);
    }
    EXPECT_EQ(wrong, 0);
}

TEST(SkewedPredictor, BankIndicesAreDistinctFunctions)
{
    SkewedPredictor predictor(smallConfig());
    // Across many addresses the three banks should frequently
    // disagree on the index — identical functions would always
    // agree.
    int all_same = 0;
    for (Addr pc = 0; pc < 4096; pc += 4) {
        const auto indices = predictor.bankIndices(pc);
        ASSERT_EQ(indices.size(), 3u);
        if (indices[0] == indices[1] && indices[1] == indices[2]) {
            ++all_same;
        }
    }
    EXPECT_LT(all_same, 20);
}

TEST(SkewedPredictor, IdenticalIndexingAblationAgrees)
{
    SkewedPredictor::Config config = smallConfig();
    config.indexing = BankIndexing::IdenticalGshare;
    SkewedPredictor predictor(config);
    for (Addr pc = 0; pc < 1024; pc += 4) {
        const auto indices = predictor.bankIndices(pc);
        EXPECT_EQ(indices[0], indices[1]);
        EXPECT_EQ(indices[1], indices[2]);
    }
    EXPECT_NE(predictor.name().find("identical"), std::string::npos);
}

TEST(SkewedPredictor, EnhancedBankZeroIgnoresHistory)
{
    SkewedPredictor enhanced(makeEnhancedConfig(6, 4));
    const Addr pc = 0x300;
    const auto before = enhanced.bankIndices(pc);
    // Shift history by resolving another branch.
    enhanced.predict(0x500);
    enhanced.update(0x500, true);
    const auto after = enhanced.bankIndices(pc);
    EXPECT_EQ(before[0], after[0]); // address-only bank
    // Banks 1/2 see the new history; at least one index moves
    // (probabilistically certain for this concrete setup).
    EXPECT_TRUE(before[1] != after[1] || before[2] != after[2]);
}

TEST(SkewedPredictor, PartialUpdateLeavesDissentingBankAlone)
{
    // Force a state where one bank dissents while the vote is
    // correct, and verify the dissenting counter is untouched.
    SkewedPredictor::Config config = smallConfig();
    config.updatePolicy = UpdatePolicy::Partial;
    SkewedPredictor partial(config);
    config.updatePolicy = UpdatePolicy::Total;
    SkewedPredictor total(config);

    // Train both identically on a stream where a second branch
    // aliases one bank of the first. With a 64-entry bank and a
    // crafted pc pair this is fiddly to construct exactly, so we
    // instead assert the two policies eventually diverge in
    // behaviour on a mixed stream — if partial never skipped an
    // update they would stay identical forever.
    bool diverged = false;
    u64 lcg = 12345;
    for (int i = 0; i < 4000 && !diverged; ++i) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        const Addr pc = 4 * ((lcg >> 33) % 512);
        const bool outcome = ((lcg >> 17) & 3) != 0; // 75% taken
        const bool p1 = partial.predict(pc);
        const bool p2 = total.predict(pc);
        diverged = p1 != p2;
        partial.update(pc, outcome);
        total.update(pc, outcome);
    }
    EXPECT_TRUE(diverged);
}

TEST(SkewedPredictor, UnconditionalShiftsHistory)
{
    SkewedPredictor predictor(smallConfig());
    const Addr pc = 0x700;
    const auto before = predictor.bankIndices(pc);
    predictor.notifyUnconditional(0x100);
    const auto after = predictor.bankIndices(pc);
    // History changed, so skewed indices should change for at
    // least one bank.
    EXPECT_TRUE(before != after);
}

TEST(SkewedPredictor, ResetRestoresColdState)
{
    SkewedPredictor predictor(smallConfig());
    for (int i = 0; i < 8; ++i) {
        predictor.update(0x100, true);
    }
    predictor.reset();
    EXPECT_FALSE(predictor.predict(0x100));
}

TEST(SkewedPredictor, FiveBankConfigWorks)
{
    SkewedPredictor::Config config = smallConfig();
    config.numBanks = 5;
    SkewedPredictor predictor(config);
    const Addr pc = 0x900;
    for (int i = 0; i < 12; ++i) {
        predictor.update(pc, true);
    }
    EXPECT_TRUE(predictor.predict(pc));
    EXPECT_EQ(predictor.bankIndices(pc).size(), 5u);
}

TEST(SkewedPredictor, SingleBankDegeneratesToOneTable)
{
    SkewedPredictor::Config config = smallConfig();
    config.numBanks = 1;
    SkewedPredictor predictor(config);
    const Addr pc = 0x100;
    for (int i = 0; i < 12; ++i) {
        predictor.update(pc, true);
    }
    EXPECT_TRUE(predictor.predict(pc));
    EXPECT_EQ(predictor.totalEntries(), 64u);
}

/** The update policies as this test states them (see paperResolve). */
enum class PaperPolicy
{
    Total,
    Partial,
    PartialLazy,
};

/** Every bank's next counter, the mispredict flag and the writes. */
struct PaperResolve
{
    std::vector<unsigned> next;
    bool mispredict;
    unsigned writes;
};

/**
 * One resolved conditional written straight from the paper's
 * section 4, with nothing from the predictor code. Each bank is a
 * @p counter_bits saturating counter that predicts taken in its
 * upper half. The overall prediction is the majority of the bank
 * predictions. Total update trains every bank toward the outcome.
 * Partial update, when the overall prediction was correct, leaves
 * the banks that predicted wrong alone; after a misprediction every
 * bank trains. The lazy variant also skips rewriting a correct bank
 * that is already saturated toward the outcome. Every bank the
 * policy trains counts one write, even if it was saturated.
 */
PaperResolve
paperResolve(const std::vector<unsigned> &counters, bool taken,
             unsigned counter_bits, PaperPolicy policy)
{
    const unsigned top = (1u << counter_bits) - 1;
    const unsigned upper_half = 1u << (counter_bits - 1);
    std::size_t taken_votes = 0;
    for (const unsigned counter : counters) {
        taken_votes += counter >= upper_half ? 1 : 0;
    }
    const bool majority_taken = 2 * taken_votes > counters.size();
    PaperResolve result{counters, majority_taken != taken, 0};
    for (std::size_t bank = 0; bank < counters.size(); ++bank) {
        const unsigned counter = counters[bank];
        const bool bank_right = (counter >= upper_half) == taken;
        if (policy != PaperPolicy::Total && majority_taken == taken &&
            !bank_right) {
            continue;
        }
        if (policy == PaperPolicy::PartialLazy && bank_right &&
            counter == (taken ? top : 0u)) {
            continue;
        }
        result.next[bank] = taken ? std::min(counter + 1, top)
                                  : (counter == 0 ? 0 : counter - 1);
        ++result.writes;
    }
    return result;
}

/**
 * Compare every entry of one transition table with paperResolve().
 * The key holds the outcome in bit 0 and bank b's counter at bit
 * 1 + b * CounterBits; the entry holds bank b's next value at bit
 * b * CounterBits, then the write count and the mispredict flag.
 */
template <unsigned NumBanks, unsigned CounterBits>
void
expectTableMatchesPaper(UpdatePolicy policy, PaperPolicy paper)
{
    const u16 *table =
        skewedTransitionTable<NumBanks, CounterBits>(policy);
    const unsigned top = (1u << CounterBits) - 1;
    const unsigned keys = 1u << (NumBanks * CounterBits + 1);
    unsigned mismatches = 0;
    std::string first;
    for (unsigned key = 0; key < keys; ++key) {
        const bool taken = (key & 1) != 0;
        std::vector<unsigned> counters(NumBanks);
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            counters[bank] = (key >> (1 + bank * CounterBits)) & top;
        }
        const PaperResolve want =
            paperResolve(counters, taken, CounterBits, paper);
        const unsigned entry = table[key];
        bool same =
            bool(entry >> skewedEntryMispredictShift) ==
                want.mispredict &&
            ((entry >> skewedEntryWritesShift) & 7) == want.writes;
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            same = same &&
                ((entry >> (bank * CounterBits)) & top) ==
                    want.next[bank];
        }
        if (!same && mismatches++ == 0) {
            first = "key " + std::to_string(key) + " entry " +
                std::to_string(entry);
        }
    }
    EXPECT_EQ(mismatches, 0u)
        << NumBanks << " banks x " << CounterBits << " bits, policy "
        << int(paper) << ": first mismatch at " << first;
}

/**
 * Check all three policies for every counter width from
 * @p CounterBits up whose key fits; returns how many widths that is.
 */
template <unsigned NumBanks, unsigned CounterBits = 1>
unsigned
expectEveryFittingWidthMatchesPaper()
{
    if constexpr (CounterBits <= 8 &&
                  skewedTableFits(NumBanks, CounterBits)) {
        expectTableMatchesPaper<NumBanks, CounterBits>(
            UpdatePolicy::Total, PaperPolicy::Total);
        expectTableMatchesPaper<NumBanks, CounterBits>(
            UpdatePolicy::Partial, PaperPolicy::Partial);
        expectTableMatchesPaper<NumBanks, CounterBits>(
            UpdatePolicy::PartialLazy, PaperPolicy::PartialLazy);
        return 1 +
            expectEveryFittingWidthMatchesPaper<NumBanks,
                                                CounterBits + 1>();
    } else {
        return 0;
    }
}

TEST(SkewedTransitionTable, EveryEntryMatchesThePaperPolicy)
{
    // A key is every bank's counter plus the outcome, at most 11
    // bits: one bank of any width, three of up to 3 bits and five of
    // up to 2 bits have tables.
    EXPECT_EQ(expectEveryFittingWidthMatchesPaper<1>(), 8u);
    EXPECT_EQ(expectEveryFittingWidthMatchesPaper<3>(), 3u);
    EXPECT_EQ(expectEveryFittingWidthMatchesPaper<5>(), 2u);
    EXPECT_FALSE(skewedTableFits(3, 4));
    EXPECT_FALSE(skewedTableFits(5, 3));
}

} // namespace
} // namespace bpred
