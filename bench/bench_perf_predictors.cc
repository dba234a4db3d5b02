/**
 * @file
 * Replay-kernel throughput gauge. Not a paper artifact — a library
 * quality gauge: the simulation loops run millions of events per
 * configuration, so per-event cost matters.
 *
 * Three sections:
 *  - "throughput": per scheme, the replay paths side by side —
 *    the per-block replayBlock() batch kernel, the
 *    phase-split SIMD path (replayBlock with an AVX2
 *    ReplayScratch), a 1-member GangSession (the lone-session
 *    path) and a 4-member one — in millions of records per second
 *    of thread CPU time, each the median of several interleaved
 *    runs (bench::interleavedSamples).
 *  - "simd_identity": for every factory scheme, the phase-split
 *    path is replayed against the scalar block kernel and must
 *    match tallies and saveState() bytes exactly; any divergence
 *    exits nonzero.
 *  - "gang_sweep": a Figure-5-shaped size sweep (many cells, one
 *    shared trace) run through a one-worker SweepRunner two ways,
 *    interleaved: once per cell (BPRED_GANG_WIDTH=1, each cell
 *    streaming the whole trace through its own session) and once
 *    as one gang, every block replayed by all members while it is
 *    cache-hot and compacted once for all of them. The two passes
 *    must agree bit-for-bit; the ratio is the gain from sharing
 *    each block. It is reported, not gated.
 *
 * With `--json <path>` both tables land in BENCH_perf.json, so CI
 * keeps a block/simd/gang throughput trajectory per scheme.
 */

#include "bench_common.hh"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <numeric>
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
using bench::cpuSecondsFor;

/**
 * Timing repetitions per kernel: each measurement below is the
 * median of this many interleaved runs, so a single scheduler
 * hiccup cannot poison a column. Recorded as "repetitions" in the
 * JSON report.
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

/** Millions of records per second for @p records in @p seconds. */
double
mrps(double records, double seconds)
{
    return seconds > 0 ? records / seconds / 1e6 : 0.0;
}

/**
 * replayBlock() batch kernel — one virtual call per block; returns
 * its seconds. The hardware counter group brackets exactly the
 * timed region and lands in @p sample, which answers "what does the
 * host CPU do under replayBlock": simulator IPC and cache/branch
 * misses per simulated kilo-record.
 */
double
runBlock(const std::string &spec, const Trace &trace, int reps,
         std::size_t block_records, PerfSample &sample)
{
    auto predictor = makePredictor(spec);
    ReplayCounters counters;
    PerfCounterGroup group;
    group.start();
    const double seconds = cpuSecondsFor([&] {
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
    sample = group.stop();
    return seconds;
}

/**
 * Index of bench::median()'s pick among @p samples, so a run's
 * hardware counters can travel with the median run.
 */
std::size_t
medianIndex(const std::vector<double> &samples)
{
    std::vector<std::size_t> order(samples.size());
    std::iota(order.begin(), order.end(), std::size_t(0));
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return samples[a] < samples[b];
              });
    return order[order.size() / 2];
}

/**
 * The phase-split vector path: replayBlock() with a ReplayScratch
 * requesting AVX2 dispatch — what SimSession passes down when
 * SimOptions::simd resolves to a vector mode. On a scalar-only
 * build (or a non-AVX2 host) this degrades to the block kernel and
 * the simd/block column sits at ~1. Returns its seconds.
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
    return cpuSecondsFor([&] {
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

/** A @p width-member gang of @p spec; returns its seconds. */
double
runGang(const std::string &spec, std::size_t width, const Trace &trace,
        int reps, std::size_t block_records)
{
    std::vector<std::unique_ptr<Predictor>> predictors;
    std::vector<Predictor *> raw;
    for (std::size_t i = 0; i < width; ++i) {
        predictors.push_back(makePredictor(spec));
        raw.push_back(predictors.back().get());
    }
    return cpuSecondsFor([&] {
        for (int rep = 0; rep < reps; ++rep) {
            simulateGang(raw, trace, SimOptions(), block_records);
        }
    });
}

/**
 * Seconds of one pass of the fig5-shaped sweep through a
 * one-worker SweepRunner, per cell or as one gang; the results land
 * in @p results.
 */
double
runSweep(const Trace &trace, std::size_t block_records, bool per_cell,
         std::vector<SimResult> &results)
{
    SweepRunner runner(1, block_records);
    enqueueFig5Cells(runner, trace, SimOptions());
    // BPRED_GANG_WIDTH=1 restores the per-cell path; any prior
    // value is put back after the pass.
    const char *prior = std::getenv("BPRED_GANG_WIDTH");
    const std::string saved = prior ? prior : "";
    if (per_cell) {
        setenv("BPRED_GANG_WIDTH", "1", 1);
    } else {
        unsetenv("BPRED_GANG_WIDTH");
    }
    const double seconds =
        cpuSecondsFor([&] { results = runner.run(); });
    if (prior) {
        setenv("BPRED_GANG_WIDTH", saved.c_str(), 1);
    } else {
        unsetenv("BPRED_GANG_WIDTH");
    }
    return seconds;
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
        "bimodal:14",      "gshare:14:10",    "gshare:10:4",
        "gselect:14:10",   "hybrid:13:10",    "hybrid:20:12",
        "gskewed:3:12:10", "egskew:12:10",    "gskewed:5:12:10",
        "gskewed:3:12:10:total",
        "gskewedsh:3:12:10", "egskewsh:12:10",  "pskew:10:8:3:12",
    };

    // Every number is a median of timingRepetitions interleaved
    // runs on the thread CPU clock; the resolved dispatch and
    // repetition count land in the JSON so perf artifacts are
    // self-describing.
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
                     "gang1 Mrec/s", "gang4 Mrec/s", "simd/block",
                     "IPC", "c-miss/Krec", "b-miss/Krec"});
    const double blockRecordsTotal = double(trace.size()) * reps;
    for (const std::string &spec : specs) {
        std::vector<PerfSample> blockPerf;
        const std::vector<std::vector<double>> seconds =
            interleavedSamples(
                timingRepetitions,
                {[&] {
                     blockPerf.emplace_back();
                     return runBlock(spec, trace, reps, block,
                                     blockPerf.back());
                 },
                 [&] { return runSimd(spec, trace, reps, block); },
                 [&] { return runGang(spec, 1, trace, reps, block); },
                 [&] {
                     return runGang(spec, 4, trace, reps, block);
                 }});
        const double blocked =
            mrps(blockRecordsTotal, bench::median(seconds[0]));
        const double simd =
            mrps(blockRecordsTotal, bench::median(seconds[1]));
        table.row()
            .cell(spec)
            .cell(blocked, 1)
            .cell(simd, 1)
            .cell(mrps(blockRecordsTotal, bench::median(seconds[2])), 1)
            .cell(mrps(blockRecordsTotal * 4,
                       bench::median(seconds[3])),
                  1)
            .cell(blocked > 0 ? simd / blocked : 0.0, 2);
        const PerfSample &sample = blockPerf[medianIndex(seconds[0])];
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
    // shared trace) through a one-worker SweepRunner, per cell and
    // as one gang, interleaved. Both passes run the same kernels,
    // so the ratio isolates what sharing each trace block (and its
    // compaction) across the gang buys.
    std::vector<SimResult> percell;
    std::vector<SimResult> ganged;
    const std::vector<std::vector<double>> sweepSeconds =
        interleavedSamples(
            timingRepetitions,
            {[&] { return runSweep(trace, block, true, percell); },
             [&] { return runSweep(trace, block, false, ganged); }});
    const double percellSeconds = bench::median(sweepSeconds[0]);
    const double gangSeconds = bench::median(sweepSeconds[1]);

    bool identical = percell.size() == ganged.size();
    for (std::size_t i = 0; identical && i < percell.size(); ++i) {
        identical = percell[i].mispredicts ==
                ganged[i].mispredicts &&
            percell[i].conditionals == ganged[i].conditionals &&
            percell[i].predictorName == ganged[i].predictorName;
    }

    const double cells = double(percell.size());
    const double sweepRecords = cells * double(trace.size());
    TextTable sweep({"mode", "cells", "cpu seconds", "Mrec/s",
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
        "the ganged fig5-shaped sweep matches the per-cell path "
        "bit-identically and runs faster, because each block is "
        "compacted once for the whole gang (1.4-1.5x measured on "
        "one worker; this trace is cache-resident, so sharing the "
        "records alone saves little).");
    return finish();
}
