/**
 * @file
 * Replay-kernel throughput gauge. Not a paper artifact — a library
 * quality gauge: the simulation loops run millions of events per
 * configuration, so per-event cost matters.
 *
 * Three sections:
 *  - "throughput": per scheme, the three replay kernels side by
 *    side — the per-block replayBlock() batch kernel, the
 *    phase-split SIMD path (replayBlock with an AVX2
 *    ReplayScratch), and a 4-member GangSession — in millions of
 *    records per second, each the median of several interleaved
 *    runs.
 *  - "simd_identity": for every factory scheme, the phase-split
 *    path is replayed against the scalar block kernel and must
 *    match tallies and saveState() bytes exactly; any divergence
 *    exits nonzero.
 *  - "gang_sweep": a Figure-5-shaped size sweep (many cells, one
 *    shared trace) run through SweepRunner twice at the same
 *    thread count: once per cell (BPRED_GANG_WIDTH=1, each cell
 *    streaming the whole trace through its own block-kernel
 *    session) and once ganged, every block replayed by all members
 *    while it is cache-hot. The two passes must agree
 *    bit-for-bit; the ratio is the gain from trace sharing alone.
 *    On this 262K-record trace, which stays cache-resident, it is
 *    ~1 (0.7–1.3× measured, one ~15 ms pass per side), so it is
 *    reported, not gated.
 *
 * With `--json <path>` both tables land in BENCH_perf.json, so CI
 * keeps a block/simd/gang throughput trajectory per scheme.
 */

#include "bench_common.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>

#include "predictors/replay_scratch.hh"
#include "sim/factory.hh"
#include "sim/gang.hh"
#include "sim/parallel.hh"
#include "support/perfcount.hh"
#include "support/rng.hh"
#include "support/simd.hh"
#include "trace/trace.hh"

namespace
{

using namespace bpred;
using Clock = std::chrono::steady_clock;

/**
 * Timing repetitions per kernel: each measurement below is the
 * median of this many runs, so a single scheduler hiccup cannot
 * poison a column. The repetitions of the different kernels are
 * interleaved round-robin (one rep of each, then the next rep of
 * each) so slow machine-wide drift — frequency steps, a noisy
 * neighbour — hits every kernel's samples about equally and the
 * between-kernel ratios stay meaningful; back-to-back batches per
 * kernel would let minutes-apart drift masquerade as a kernel
 * difference. Recorded as "repetitions" in the JSON report.
 */
constexpr int timingRepetitions = 5;

Trace
makePerfTrace()
{
    Trace trace("perf");
    Rng rng(1);
    for (int i = 0; i < 1 << 18; ++i) {
        const Addr pc = 0x1000 + 4 * rng.uniformInt(4096);
        if (rng.chance(0.25)) {
            trace.appendUnconditional(pc);
        } else {
            trace.appendConditional(pc, rng.chance(0.7));
        }
    }
    trace.shrinkToFit();
    return trace;
}

double
secondsFor(const std::function<void()> &body)
{
    const Clock::time_point start = Clock::now();
    body();
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** Millions of records per second for @p records in @p seconds. */
double
mrps(double records, double seconds)
{
    return seconds > 0 ? records / seconds / 1e6 : 0.0;
}

/** runBlock() outcome: throughput plus hardware counters. */
struct BlockPerf
{
    double mrps = 0.0;
    PerfSample sample;
};

/**
 * replayBlock() batch kernel — one virtual call per block. The
 * hardware counter group brackets exactly the timed region, so the
 * sample answers "what does the host CPU do under replayBlock":
 * simulator IPC and cache/branch misses per simulated kilo-record.
 */
BlockPerf
runBlock(const std::string &spec, const Trace &trace, int reps,
         std::size_t block_records)
{
    auto predictor = makePredictor(spec);
    ReplayCounters counters;
    PerfCounterGroup group;
    BlockPerf perf;
    group.start();
    const double seconds = secondsFor([&] {
        for (int rep = 0; rep < reps; ++rep) {
            const BranchRecord *records = trace.records().data();
            for (std::size_t at = 0; at < trace.size();
                 at += block_records) {
                const std::size_t n =
                    std::min(block_records, trace.size() - at);
                predictor->replayBlock(records + at, n, counters);
            }
        }
    });
    perf.sample = group.stop();
    perf.mrps = mrps(double(trace.size()) * reps, seconds);
    return perf;
}

/** Median BlockPerf: the perf sample travels with the median run. */
BlockPerf
medianBlockPerf(std::vector<BlockPerf> samples)
{
    std::sort(samples.begin(), samples.end(),
              [](const BlockPerf &a, const BlockPerf &b) {
                  return a.mrps < b.mrps;
              });
    return samples[samples.size() / 2];
}

/**
 * The phase-split vector path: replayBlock() with a ReplayScratch
 * requesting AVX2 dispatch — what SimSession passes down when
 * SimOptions::simd resolves to a vector mode. On a scalar-only
 * build (or a non-AVX2 host) this degrades to the block kernel and
 * the simd/block column sits at ~1.
 */
double
runSimd(const std::string &spec, const Trace &trace, int reps,
        std::size_t block_records)
{
    auto predictor = makePredictor(spec);
    ReplayCounters counters;
    ReplayScratch scratch;
    // Auto honours BPRED_SIMD, so CI can record this bench under
    // both dispatch modes from one binary.
    scratch.mode = SimdMode::Auto;
    const double seconds = secondsFor([&] {
        for (int rep = 0; rep < reps; ++rep) {
            const BranchRecord *records = trace.records().data();
            for (std::size_t at = 0; at < trace.size();
                 at += block_records) {
                const std::size_t n =
                    std::min(block_records, trace.size() - at);
                predictor->replayBlock(records + at, n, counters,
                                       &scratch);
            }
        }
    });
    return mrps(double(trace.size()) * reps, seconds);
}

/**
 * Byte-identity gate: replay @p trace blockwise through @p spec
 * twice — the scalar block kernel (null scratch) and the
 * phase-split AVX2 path — and demand identical tallies and, where
 * snapshots are supported, identical saveState() bytes. Returns
 * false (and reports) on any divergence.
 */
bool
simdMatchesScalar(const std::string &spec, const Trace &trace,
                  std::size_t block_records)
{
    auto scalar = makePredictor(spec);
    auto simd = makePredictor(spec);
    ReplayCounters scalarTally;
    ReplayCounters simdTally;
    ReplayScratch scratch;
    scratch.mode = SimdMode::Auto;
    const BranchRecord *records = trace.records().data();
    for (std::size_t at = 0; at < trace.size(); at += block_records) {
        const std::size_t n =
            std::min(block_records, trace.size() - at);
        scalar->replayBlock(records + at, n, scalarTally);
        simd->replayBlock(records + at, n, simdTally, &scratch);
    }
    if (scalarTally.conditionals != simdTally.conditionals ||
        scalarTally.mispredicts != simdTally.mispredicts) {
        std::cout << "[FAIL] " << spec
                  << ": simd tally diverged from scalar ("
                  << simdTally.mispredicts << "/"
                  << simdTally.conditionals << " vs "
                  << scalarTally.mispredicts << "/"
                  << scalarTally.conditionals << ")\n";
        return false;
    }
    if (scalar->supportsSnapshot() && simd->supportsSnapshot()) {
        std::string scalarState;
        std::string simdState;
        savePredictorState(*scalar, scalarState);
        savePredictorState(*simd, simdState);
        if (scalarState != simdState) {
            std::cout << "[FAIL] " << spec
                      << ": simd predictor state bytes diverged "
                         "from scalar\n";
            return false;
        }
    }
    return true;
}

/** A 4-member gang: records x members per trace pass. */
double
runGang(const std::string &spec, const Trace &trace, int reps,
        std::size_t block_records)
{
    constexpr std::size_t width = 4;
    std::vector<std::unique_ptr<Predictor>> predictors;
    std::vector<Predictor *> raw;
    for (std::size_t i = 0; i < width; ++i) {
        predictors.push_back(makePredictor(spec));
        raw.push_back(predictors.back().get());
    }
    const double seconds = secondsFor([&] {
        for (int rep = 0; rep < reps; ++rep) {
            simulateGang(raw, trace, SimOptions(), block_records);
        }
    });
    return mrps(double(trace.size()) * reps * width, seconds);
}

/** Enqueue the Figure-5-shaped cell grid over @p trace. */
void
enqueueFig5Cells(SweepRunner &runner, const Trace &trace,
                 const SimOptions &options)
{
    const std::vector<unsigned> sizeBits = {10, 11, 12, 13, 14};
    for (const unsigned bits : sizeBits) {
        runner.enqueue("gshare:" + std::to_string(bits) + ":4",
                       trace, options);
        runner.enqueue("gskewed:3:" + std::to_string(bits - 2) +
                           ":4",
                       trace, options);
        runner.enqueue("gskewed:3:" + std::to_string(bits) + ":4",
                       trace, options);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bpred::bench;

    init(argc, argv);
    banner("replay kernel throughput",
           "Per-block vs phase-split vs gang replay, and a "
           "fig5-shaped sweep per-cell vs ganged.");

    const Trace trace = makePerfTrace();
    const std::size_t block = blockRecords();
    const int reps =
        std::max<int>(1, int((u64(1) << 21) / trace.size()));
    std::cout << "[perf] synthetic trace: " << trace.size()
              << " records, " << reps << " reps/kernel, block "
              << block << " records\n\n";

    const std::vector<std::string> specs = {
        "bimodal:14",      "gshare:14:10",   "gselect:14:10",
        "hybrid:13:10",    "hybrid:20:12",   "gskewed:3:12:10",
        "egskew:12:10",    "gskewed:5:12:10", "gskewed:3:12:10:total",
    };

    // Every number is a median of timingRepetitions runs; the
    // resolved dispatch and repetition count land in the JSON so
    // perf artifacts are self-describing.
    const SimdMode resolved = resolveSimdMode(SimdMode::Auto);
    recordReportField("repetitions", u64(timingRepetitions));
    recordReportField("simd_mode",
                      std::string(simdModeName(resolved)));
    std::cout << "[perf] simd dispatch resolves to "
              << simdModeName(resolved) << ", median of "
              << timingRepetitions << " runs per kernel\n\n";

    // IPC / MPKrec come from a perf_event group bracketing the
    // block kernel; unavailable counters (containers, non-Linux)
    // print "-" and are omitted from the JSON stats.
    TextTable table({"scheme", "block Mrec/s", "simd Mrec/s",
                     "gang4 Mrec/s", "simd/block", "IPC",
                     "c-miss/Krec", "b-miss/Krec"});
    const double blockRecordsTotal = double(trace.size()) * reps;
    for (const std::string &spec : specs) {
        // Interleaved repetitions: one rep of every kernel per pass
        // (see timingRepetitions) so the medians compare like with
        // like under machine-wide throughput drift.
        std::vector<BlockPerf> blockSamples;
        std::vector<double> simdSamples;
        std::vector<double> gangSamples;
        for (int i = 0; i < timingRepetitions; ++i) {
            blockSamples.push_back(
                runBlock(spec, trace, reps, block));
            simdSamples.push_back(
                runSimd(spec, trace, reps, block));
            gangSamples.push_back(
                runGang(spec, trace, reps, block));
        }
        const BlockPerf blocked = medianBlockPerf(blockSamples);
        const double simd = bench::median(simdSamples);
        const double ganged = bench::median(gangSamples);
        table.row()
            .cell(spec)
            .cell(blocked.mrps, 1)
            .cell(simd, 1)
            .cell(ganged, 1)
            .cell(blocked.mrps > 0 ? simd / blocked.mrps : 0.0, 2);
        const PerfSample &sample = blocked.sample;
        if (sample.valid) {
            table.cell(sample.ipc(), 2)
                .cell(PerfSample::perKilo(sample.cacheMisses,
                                          blockRecordsTotal),
                      2)
                .cell(PerfSample::perKilo(sample.branchMisses,
                                          blockRecordsTotal),
                      2);
        } else {
            table.cell(std::string("-"))
                .cell(std::string("-"))
                .cell(std::string("-"));
        }
        if (jsonEnabled() && sample.valid) {
            StatRegistry hw;
            hw.counter("perf.cycles") = sample.cycles;
            hw.counter("perf.instructions") = sample.instructions;
            hw.counter("perf.cache_misses") = sample.cacheMisses;
            hw.counter("perf.branch_misses") = sample.branchMisses;
            hw.running("perf.ipc").sample(sample.ipc());
            hw.running("perf.branch_mpkr")
                .sample(PerfSample::perKilo(sample.branchMisses,
                                            blockRecordsTotal));
            emitStats("throughput", spec, hw);
        }
    }
    emitTable("throughput", table);

    // Correctness gate for the phase-split path: every scheme the
    // factory can build must produce tallies and predictor state
    // byte-identical to the scalar block kernel. A divergence
    // fails the whole bench (nonzero exit), so CI catches a broken
    // vector kernel even when throughput looks healthy.
    bool simdIdentical = true;
    TextTable identity({"scheme", "spec", "identical"});
    for (const SchemeInfo &scheme : listSchemes()) {
        const bool ok = simdMatchesScalar(scheme.example, trace,
                                          block);
        identity.row()
            .cell(scheme.name)
            .cell(scheme.example)
            .cell(std::string(ok ? "yes" : "NO"));
        simdIdentical = simdIdentical && ok;
    }
    emitTable("simd_identity", identity);

    // The gang gauge: the same fig5-shaped sweep (15 cells, one
    // shared trace) through SweepRunner at the same thread count.
    // The baseline pass runs one cell at a time (BPRED_GANG_WIDTH=1;
    // the prior value is restored after) through the same block
    // kernels, so the ratio isolates what sharing each trace block
    // across the gang buys.
    const char *prior = std::getenv("BPRED_GANG_WIDTH");
    const std::string saved = prior ? prior : "";

    SweepRunner percellRunner(sweepThreads(), block);
    enqueueFig5Cells(percellRunner, trace, SimOptions());
    setenv("BPRED_GANG_WIDTH", "1", 1);
    std::vector<SimResult> percell;
    const double percellSeconds =
        secondsFor([&] { percell = percellRunner.run(); });

    if (prior) {
        setenv("BPRED_GANG_WIDTH", saved.c_str(), 1);
    } else {
        unsetenv("BPRED_GANG_WIDTH");
    }
    SweepRunner gangRunner(sweepThreads(), block);
    enqueueFig5Cells(gangRunner, trace, SimOptions());
    std::vector<SimResult> ganged;
    const double gangSeconds =
        secondsFor([&] { ganged = gangRunner.run(); });

    bool identical = percell.size() == ganged.size();
    for (std::size_t i = 0; identical && i < percell.size(); ++i) {
        identical = percell[i].mispredicts ==
                ganged[i].mispredicts &&
            percell[i].conditionals == ganged[i].conditionals &&
            percell[i].predictorName == ganged[i].predictorName;
    }

    const double cells = double(percell.size());
    const double sweepRecords = cells * double(trace.size());
    TextTable sweep({"mode", "cells", "seconds", "Mrec/s",
                     "speedup", "identical"});
    sweep.row()
        .cell(std::string("per-cell"))
        .cell(u64(cells))
        .cell(percellSeconds, 3)
        .cell(mrps(sweepRecords, percellSeconds), 1)
        .cell(1.0, 2)
        .cell(std::string("-"));
    sweep.row()
        .cell(std::string("gang"))
        .cell(u64(cells))
        .cell(gangSeconds, 3)
        .cell(mrps(sweepRecords, gangSeconds), 1)
        .cell(gangSeconds > 0 ? percellSeconds / gangSeconds : 0.0,
              2)
        .cell(std::string(identical ? "yes" : "NO"));
    emitTable("gang_sweep", sweep);

    if (!identical) {
        std::cout << "\n[FAIL] gang results diverged from the "
                     "per-cell pass\n";
        return 1;
    }
    if (!simdIdentical) {
        std::cout << "\n[FAIL] simd replay diverged from the scalar "
                     "block path\n";
        return 1;
    }

    expectation(
        "simd/block >= 1.5 on gshare and egskew at the default "
        "block size when AVX2 dispatch is live, byte-identically to "
        "the scalar block kernel for every scheme; and "
        "the ganged fig5-shaped sweep matches the per-cell block "
        "path bit-identically, at about the same speed (0.7-1.3x "
        "measured: this trace is cache-resident, so trace sharing "
        "has little to save).");
    return finish();
}
