/**
 * @file
 * The single-table predictors and the skewed family against the
 * textbook oracle (paper_reference.hh). bimodal, gshare and gselect
 * must match it in mispredict count, every final counter and the
 * history register; gskewed, e-gskew, their shared-hysteresis
 * variants and pskew in mispredict count, every final bank entry,
 * the history state and the bank-write count. Each runs on a
 * geometry grid and on every preset, under both SIMD dispatch
 * modes.
 *
 * Every other replay gate compares one production path with
 * another; this one compares production with code it does not share.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/skewed_predictor.hh"
#include "paper_reference.hh"
#include "predictors/bimodal.hh"
#include "predictors/gselect.hh"
#include "predictors/gshare.hh"
#include "predictors/replay_scratch.hh"
#include "sim/driver.hh"
#include "sim/factory.hh"
#include "support/rng.hh"
#include "support/serialize.hh"
#include "support/simd.hh"
#include "trace/trace.hh"
#include "workloads/presets.hh"

namespace bpred
{
namespace
{

const SimdMode modes[] = {SimdMode::Scalar, SimdMode::Avx2};

std::unique_ptr<Predictor>
makeProduction(paper::Index index, unsigned index_bits,
               unsigned history_bits, unsigned counter_bits)
{
    switch (index) {
      case paper::Index::Bimodal:
        return std::make_unique<BimodalPredictor>(index_bits,
                                                  counter_bits);
      case paper::Index::Gshare:
        return std::make_unique<GSharePredictor>(
            index_bits, history_bits, counter_bits);
      case paper::Index::Gselect:
        return std::make_unique<GSelectPredictor>(
            index_bits, history_bits, counter_bits);
    }
    return nullptr;
}

/** Run the oracle over @p trace; returns its mispredict count. */
template <typename Oracle>
u64
replayOracle(Oracle &oracle, const Trace &trace)
{
    u64 mispredicts = 0;
    for (const BranchRecord &record : trace) {
        if (!record.conditional) {
            oracle.unconditional();
            continue;
        }
        mispredicts += u64(oracle.train(record.pc, record.taken) !=
                           record.taken);
    }
    return mispredicts;
}

/**
 * Compare @p predictor's snapshot with @p oracle's state: one
 * counter run (entry count, width, counters) and, for the schemes
 * with history, the 64-bit history register.
 */
void
expectStateMatches(const Predictor &predictor,
                   const paper::SingleTable &oracle, unsigned counter_bits,
                   bool has_history)
{
    std::string bytes;
    ByteWriter out(bytes);
    predictor.saveState(out);
    ByteReader in(bytes);
    const std::vector<u8> &want = oracle.counters();
    ASSERT_EQ(in.getU64(), want.size());
    ASSERT_EQ(in.getU8(), counter_bits);
    const u8 *got = in.take(want.size());
    const auto [at, _] = std::mismatch(want.begin(), want.end(), got);
    EXPECT_EQ(at, want.end())
        << "first counter mismatch at " << (at - want.begin());
    if (has_history) {
        EXPECT_EQ(in.getU64(), oracle.historyRegister());
    }
    EXPECT_TRUE(in.atEnd());
}

/**
 * A trace with something at every table size: a few thousand sites
 * spread over 2^18 words (so small tables alias heavily and large
 * ones barely), biased, history-correlated and looping branches,
 * and unconditionals feeding the history.
 */
Trace
gridTrace()
{
    Trace trace("oracle-grid");
    Rng rng(20);
    std::vector<Addr> sites(3000);
    for (Addr &site : sites) {
        site = 0x400000 + 4 * rng.uniformInt(1u << 18);
    }
    bool last = false;
    for (int i = 0; i < 12000; ++i) {
        const Addr pc = sites[rng.uniformInt(u32(sites.size()))];
        if (rng.chance(0.15)) {
            trace.appendUnconditional(pc + 8);
            continue;
        }
        bool taken = false;
        switch ((pc >> 2) % 4) {
          case 0:
            taken = rng.chance(0.9);
            break;
          case 1:
            taken = !last;
            break;
          case 2:
            taken = i % 7 != 0;
            break;
          default:
            taken = rng.chance(0.5);
            break;
        }
        trace.appendConditional(pc, taken);
        last = taken;
    }
    return trace;
}

/**
 * Replay @p trace through replayBlock() in uneven blocks under
 * @p mode, so the phase-split tiles and the block kernel both see
 * blocks that start mid-stream.
 */
u64
replayProduction(Predictor &predictor, const Trace &trace, SimdMode mode)
{
    ReplayScratch scratch;
    scratch.mode = mode;
    ReplayCounters counters;
    const BranchRecord *records = trace.records().data();
    std::size_t at = 0;
    std::size_t chunk = 5;
    while (at < trace.size()) {
        const std::size_t n = std::min(chunk, trace.size() - at);
        predictor.replayBlock(records + at, n, counters, &scratch);
        at += n;
        chunk = chunk * 3 + 1;
    }
    return counters.mispredicts;
}

TEST(PaperReference, SingleTableGridMatchesOracle)
{
    // Index 4..16, history 0..n+4 (gshare folds past n, gselect keeps
    // no address bits from n on), counter widths 1..3.
    const Trace trace = gridTrace();
    const paper::Index indices[] = {paper::Index::Bimodal,
                                    paper::Index::Gshare,
                                    paper::Index::Gselect};
    unsigned configurations = 0;
    for (const paper::Index index : indices) {
        const bool has_history = index != paper::Index::Bimodal;
        for (unsigned n = 4; n <= 16; ++n) {
            const unsigned max_history = has_history ? n + 4 : 0;
            for (unsigned k = 0; k <= max_history; ++k) {
                for (unsigned w = 1; w <= 3; ++w) {
                    paper::SingleTable oracle(index, n, k, w);
                    const u64 want = replayOracle(oracle, trace);
                    ++configurations;
                    for (const SimdMode mode : modes) {
                        auto predictor = makeProduction(index, n, k, w);
                        SCOPED_TRACE(predictor->name() + " w=" +
                                     std::to_string(w) + " mode=" +
                                     std::string(simdModeName(mode)));
                        EXPECT_EQ(replayProduction(*predictor, trace,
                                                   mode),
                                  want);
                        expectStateMatches(*predictor, oracle, w,
                                           has_history);
                    }
                }
            }
        }
    }
    // Bimodal: 13 sizes x 3 widths. gshare and gselect: n + 5
    // history lengths per size (195 over n = 4..16) x 3 widths.
    EXPECT_EQ(configurations, 13u * 3 + 2 * 195 * 3);
}

TEST(PaperReference, PresetsMatchOracle)
{
    // The figures' single-table geometries on every preset, through
    // the simulation driver (the path every bench takes).
    struct Geometry
    {
        paper::Index index;
        unsigned indexBits;
        unsigned historyBits;
    };
    const Geometry geometries[] = {
        {paper::Index::Bimodal, 12, 0},  {paper::Index::Gshare, 10, 4},
        {paper::Index::Gshare, 14, 12},  {paper::Index::Gshare, 8, 12},
        {paper::Index::Gselect, 12, 4},  {paper::Index::Gselect, 10, 12},
    };
    for (const std::string &name : ibsBenchmarkNames()) {
        const Trace trace = makeIbsTrace(name, 0.01);
        for (const Geometry &geometry : geometries) {
            paper::SingleTable oracle(geometry.index, geometry.indexBits,
                                      geometry.historyBits, 2);
            const u64 want = replayOracle(oracle, trace);
            for (const SimdMode mode : modes) {
                auto predictor =
                    makeProduction(geometry.index, geometry.indexBits,
                                   geometry.historyBits, 2);
                SCOPED_TRACE(name + " " + predictor->name() + " mode=" +
                             std::string(simdModeName(mode)));
                SimOptions options;
                options.simd = mode;
                const SimResult result =
                    simulateWithOptions(*predictor, trace, options);
                EXPECT_EQ(result.mispredicts, want);
                expectStateMatches(*predictor, oracle, 2,
                                   geometry.index != paper::Index::Bimodal);
            }
        }
    }
}

/** The spec keyword of an oracle update policy. */
const char *
policyName(paper::Update update)
{
    switch (update) {
      case paper::Update::Total:
        return "total";
      case paper::Update::Partial:
        return "partial";
      case paper::Update::PartialLazy:
        return "partial-lazy";
    }
    return "";
}

/**
 * The production predictor of @p shape: a factory spec for the
 * shared-hysteresis and per-address schemes (their counters are
 * 2-bit), a SkewedPredictor::Config for the rest, so counter width
 * and identical indexing can vary too.
 */
std::unique_ptr<Predictor>
makeSkewed(const paper::SkewedShape &shape)
{
    const std::string policy = policyName(shape.update);
    const std::string n = std::to_string(shape.n);
    const std::string k = std::to_string(shape.k);
    const std::string banks = std::to_string(shape.banks);
    if (shape.bhtBits > 0) {
        return makePredictor("pskew:" + std::to_string(shape.bhtBits) +
                             ":" + k + ":" + banks + ":" + n + ":" +
                             policy);
    }
    if (shape.entry == paper::Entry::SharedHysteresis) {
        return makePredictor(
            shape.index == paper::Banks::Enhanced
                ? "egskewsh:" + n + ":" + k + ":" + policy
                : "gskewedsh:" + banks + ":" + n + ":" + k + ":" + policy);
    }
    SkewedPredictor::Config config;
    if (shape.index == paper::Banks::Enhanced) {
        config = makeEnhancedConfig(shape.n, shape.k, shape.counterBits);
    }
    config.numBanks = shape.banks;
    config.bankIndexBits = shape.n;
    config.historyBits = shape.k;
    config.counterBits = shape.counterBits;
    config.updatePolicy = UpdatePolicy(unsigned(shape.update));
    if (shape.index == paper::Banks::IdenticalGshare) {
        config.indexing = BankIndexing::IdenticalGshare;
    }
    return std::make_unique<SkewedPredictor>(config);
}

/** Compare @p got (@p count bytes) with @p want, naming the first miss. */
void
expectRunMatches(const std::vector<u8> &want, const u8 *got,
                 const std::string &what)
{
    const auto [at, _] = std::mismatch(want.begin(), want.end(), got);
    EXPECT_EQ(at, want.end())
        << what << ": first mismatch at " << (at - want.begin());
}

/**
 * Compare @p predictor's snapshot with @p oracle's state. The
 * framing is per scheme: pskew writes its local histories and then
 * one counter run per bank; the shared-hysteresis schemes one
 * prediction run and one hysteresis run per bank, then the history;
 * gskewed and e-gskew one counter run per bank, the history and the
 * bank-write count.
 */
void
expectSkewedStateMatches(const Predictor &predictor,
                         const paper::Skewed &oracle,
                         const paper::SkewedShape &shape)
{
    std::string bytes;
    ByteWriter out(bytes);
    predictor.saveState(out);
    ByteReader in(bytes);
    const bool local = shape.bhtBits > 0;
    if (local) {
        const std::vector<u16> &want = oracle.localHistories();
        ASSERT_EQ(in.getU64(), want.size());
        std::size_t mismatches = 0;
        for (const u16 history : want) {
            mismatches += in.getU16() != history ? 1 : 0;
        }
        EXPECT_EQ(mismatches, 0u) << "local histories differ";
    }
    const u64 entries = u64(1) << shape.n;
    for (unsigned bank = 0; bank < shape.banks; ++bank) {
        const std::string what = "bank " + std::to_string(bank);
        ASSERT_EQ(in.getU64(), entries);
        if (shape.entry == paper::Entry::Counter) {
            ASSERT_EQ(in.getU8(), shape.counterBits);
            expectRunMatches(oracle.bank(bank), in.take(entries), what);
            continue;
        }
        expectRunMatches(oracle.bank(bank), in.take(entries),
                         what + " prediction");
        ASSERT_EQ(in.getU64(), entries / 2);
        expectRunMatches(oracle.hysteresis(bank), in.take(entries / 2),
                         what + " hysteresis");
    }
    if (!local) {
        EXPECT_EQ(in.getU64(), oracle.historyRegister());
        if (shape.entry == paper::Entry::Counter) {
            EXPECT_EQ(in.getU64(), oracle.writes());
        }
    }
    EXPECT_TRUE(in.atEnd());
    const auto *skewed = dynamic_cast<const SkewedPredictor *>(&predictor);
    ASSERT_NE(skewed, nullptr);
    EXPECT_EQ(skewed->bankWrites(), oracle.writes());
}

/** Replay @p shape through the oracle and production, both modes. */
void
expectSkewedMatchesOracle(const paper::SkewedShape &shape,
                          const Trace &trace)
{
    paper::Skewed oracle(shape);
    const u64 want = replayOracle(oracle, trace);
    for (const SimdMode mode : modes) {
        auto predictor = makeSkewed(shape);
        SCOPED_TRACE(predictor->name() + " w=" +
                     std::to_string(shape.counterBits) + " mode=" +
                     std::string(simdModeName(mode)));
        EXPECT_EQ(replayProduction(*predictor, trace, mode), want);
        expectSkewedStateMatches(*predictor, oracle, shape);
    }
}

const paper::Update updates[] = {paper::Update::Total,
                                 paper::Update::Partial,
                                 paper::Update::PartialLazy};

TEST(PaperReference, SkewedGridMatchesOracle)
{
    // 1, 3 and 5 banks under every policy; bank widths from H's
    // two-bit minimum up, and histories from none through one and two
    // bank widths (V2 all history) to the 44-bit maximum.
    const Trace trace = gridTrace();
    const unsigned bank_counts[] = {1, 3, 5};
    unsigned configurations = 0;
    for (const unsigned banks : bank_counts) {
        for (const paper::Update update : updates) {
            for (const unsigned n : {2u, 3u, 4u, 6u, 9u, 13u}) {
                for (const unsigned k :
                     {0u, 1u, n, 2 * n, 2 * n + 3, 44u}) {
                    paper::SkewedShape shape;
                    shape.banks = banks;
                    shape.n = n;
                    shape.k = k;
                    shape.update = update;
                    expectSkewedMatchesOracle(shape, trace);
                    ++configurations;
                }
            }
        }
    }
    EXPECT_EQ(configurations, 3u * 3 * 6 * 6);
}

TEST(PaperReference, SkewedVariantsMatchOracle)
{
    // Counter widths 1 and 3, e-gskew's address-indexed bank 0, the
    // identical-gshare replication, the shared-hysteresis encoding
    // (both bank-0 indexings) and per-address histories.
    const Trace trace = gridTrace();
    for (const paper::Update update : updates) {
        for (const unsigned w : {1u, 3u}) {
            for (const unsigned n : {4u, 9u}) {
                paper::SkewedShape shape;
                shape.n = n;
                shape.k = 6;
                shape.counterBits = w;
                shape.update = update;
                expectSkewedMatchesOracle(shape, trace);
            }
        }
        for (const unsigned n : {2u, 4u, 9u, 13u}) {
            for (const unsigned k : {0u, n, 2 * n + 3, 44u}) {
                paper::SkewedShape shape;
                shape.n = n;
                shape.k = k;
                shape.update = update;
                shape.index = paper::Banks::Enhanced;
                expectSkewedMatchesOracle(shape, trace);
            }
        }
        for (const unsigned banks : {3u, 5u}) {
            for (const unsigned k : {3u, 9u, 20u}) {
                paper::SkewedShape shape;
                shape.banks = banks;
                shape.n = 9;
                shape.k = k;
                shape.update = update;
                shape.index = paper::Banks::IdenticalGshare;
                expectSkewedMatchesOracle(shape, trace);
            }
        }
        for (const unsigned banks : {1u, 3u, 5u}) {
            for (const unsigned n : {2u, 4u, 9u}) {
                for (const unsigned k : {0u, 5u, 2 * n + 1}) {
                    paper::SkewedShape shape;
                    shape.banks = banks;
                    shape.n = n;
                    shape.k = k;
                    shape.update = update;
                    shape.entry = paper::Entry::SharedHysteresis;
                    expectSkewedMatchesOracle(shape, trace);
                }
            }
        }
        for (const unsigned n : {4u, 9u}) {
            for (const unsigned k : {5u, 20u}) {
                paper::SkewedShape shape;
                shape.n = n;
                shape.k = k;
                shape.update = update;
                shape.index = paper::Banks::Enhanced;
                shape.entry = paper::Entry::SharedHysteresis;
                expectSkewedMatchesOracle(shape, trace);
            }
        }
        for (const unsigned banks : {1u, 3u, 5u}) {
            for (const unsigned bht : {2u, 8u}) {
                for (const unsigned k : {1u, 6u, 16u}) {
                    for (const unsigned n : {3u, 9u}) {
                        paper::SkewedShape shape;
                        shape.banks = banks;
                        shape.n = n;
                        shape.k = k;
                        shape.update = update;
                        shape.bhtBits = bht;
                        expectSkewedMatchesOracle(shape, trace);
                    }
                }
            }
        }
    }
}

TEST(PaperReference, SkewedPresetsMatchOracle)
{
    // The figures' and ablations' skewed geometries and the factory's
    // extension examples on every preset, through the simulation
    // driver (the path every bench takes).
    const auto shape = [](unsigned banks, unsigned n, unsigned k,
                          paper::Update update, paper::Banks index,
                          paper::Entry entry, unsigned bht) {
        paper::SkewedShape s;
        s.banks = banks;
        s.n = n;
        s.k = k;
        s.update = update;
        s.index = index;
        s.entry = entry;
        s.bhtBits = bht;
        return s;
    };
    using paper::Banks;
    using paper::Entry;
    using paper::Update;
    const paper::SkewedShape shapes[] = {
        shape(3, 12, 4, Update::Partial, Banks::Skewed, Entry::Counter, 0),
        shape(3, 10, 12, Update::Total, Banks::Skewed, Entry::Counter, 0),
        shape(5, 12, 10, Update::PartialLazy, Banks::Skewed,
              Entry::Counter, 0),
        shape(1, 14, 10, Update::Partial, Banks::Skewed, Entry::Counter,
              0),
        shape(3, 12, 12, Update::Partial, Banks::Enhanced, Entry::Counter,
              0),
        shape(3, 10, 8, Update::Total, Banks::Enhanced, Entry::Counter, 0),
        shape(3, 12, 8, Update::Partial, Banks::Skewed,
              Entry::SharedHysteresis, 0),
        shape(3, 12, 8, Update::Total, Banks::Enhanced,
              Entry::SharedHysteresis, 0),
        shape(3, 12, 8, Update::Partial, Banks::Skewed, Entry::Counter, 10),
        shape(5, 10, 8, Update::Total, Banks::Skewed, Entry::Counter, 10),
    };
    for (const std::string &name : ibsBenchmarkNames()) {
        const Trace trace = makeIbsTrace(name, 0.01);
        for (const paper::SkewedShape &geometry : shapes) {
            paper::Skewed oracle(geometry);
            const u64 want = replayOracle(oracle, trace);
            for (const SimdMode mode : modes) {
                auto predictor = makeSkewed(geometry);
                SCOPED_TRACE(name + " " + predictor->name() + " mode=" +
                             std::string(simdModeName(mode)));
                SimOptions options;
                options.simd = mode;
                const SimResult result =
                    simulateWithOptions(*predictor, trace, options);
                EXPECT_EQ(result.mispredicts, want);
                expectSkewedStateMatches(*predictor, oracle, geometry);
            }
        }
    }
}

} // namespace
} // namespace bpred
