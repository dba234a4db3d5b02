/**
 * @file
 * The single-table predictors against the textbook oracle
 * (paper_reference.hh): bimodal, gshare and gselect must match it in
 * mispredict count, every final counter and the history register,
 * on a geometry grid and on every preset, under both SIMD dispatch
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

#include "paper_reference.hh"
#include "predictors/bimodal.hh"
#include "predictors/gselect.hh"
#include "predictors/gshare.hh"
#include "predictors/replay_scratch.hh"
#include "sim/driver.hh"
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
u64
replayOracle(paper::SingleTable &oracle, const Trace &trace)
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

} // namespace
} // namespace bpred
