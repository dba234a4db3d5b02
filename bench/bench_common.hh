/**
 * @file
 * Shared plumbing for the experiment benches.
 *
 * Every bench binary reproduces one table or figure of the paper:
 * it loads the standard six-benchmark suite (honouring
 * BPRED_TRACE_SCALE / BPRED_TRACE_CACHE), prints our measured rows
 * through TextTable, and — where the paper gives concrete numbers —
 * prints the paper's reference values alongside for eyeball
 * comparison. Absolute values are not expected to match (our traces
 * are synthetic stand-ins for IBS-Ultrix); shapes and orderings are.
 *
 * Machine-readable output: every bench accepts `--json <path>`.
 * Rows routed through emitTable() (plus any emitSeries() /
 * emitStats() telemetry) are then also collected into one JSON
 * document and written to <path> by finish(), giving CI a
 * BENCH_*.json perf/accuracy trajectory per run. The canonical
 * main() shape is:
 *
 *   int main(int argc, char **argv) {
 *       init(argc, argv);
 *       ...
 *       emitTable(trace.name(), table);  // instead of table.print
 *       ...
 *       return finish();
 *   }
 */

#pragma once

#include <cstddef>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "sim/driver.hh"
#include "support/stat_registry.hh"
#include "support/table.hh"
#include "trace/trace.hh"

namespace bpred::bench
{

/** Default trace scale for experiments (1.0 = 2M branches each). */
constexpr double defaultScale = 1.0;

/**
 * Parse bench command-line arguments (`--json <path>`,
 * `--threads <n>`, `--block-size <records>`); call first in
 * main(). Prints usage and exits with status 2 on unknown
 * arguments.
 */
void init(int argc, char **argv);

/**
 * As init(), but arguments the common layer does not recognise are
 * returned to the caller (in order) instead of aborting — for
 * benches with their own flags on top of the shared ones (e.g.
 * bench_serve_loadgen's --tenants). The caller owns rejecting
 * whatever it does not understand either.
 */
std::vector<std::string> initWithExtraArgs(int argc, char **argv);

/** True when `--json` capture is active. */
bool jsonEnabled();

/**
 * Worker threads requested via `--threads` (0 = none given; pass
 * it to SweepRunner, which then falls back to BPRED_THREADS / the
 * hardware concurrency).
 */
unsigned sweepThreads();

/**
 * Gang replay block size requested via `--block-size` (records per
 * cache-resident block; defaults to defaultReplayBlockRecords =
 * 8192). Pass to SweepRunner / GangSession. The resolved value is
 * recorded as `block_size` in the `--json` report so perf
 * artifacts are self-describing.
 */
std::size_t blockRecords();

/**
 * Load the six-benchmark suite once per binary.
 * Prints a short provenance banner to stdout.
 */
const std::vector<Trace> &suite();

/** Standard experiment banner: what the bench reproduces. */
void banner(const std::string &artifact, const std::string &claim);

/**
 * Print a closing note restating the shape the paper reports, so
 * the output is self-judging.
 */
void expectation(const std::string &text);

/**
 * Record an extra top-level field in the `--json` report document
 * (e.g. "repetitions", "simd_mode"), so bench artifacts are
 * self-describing. Later writes to the same key win. No-op when
 * `--json` is inactive.
 */
void recordReportField(const std::string &key, JsonValue value);

/**
 * Print @p table to stdout and, when `--json` is active, record it
 * in the report under @p section (typically the trace name; tables
 * within a section are kept in emission order).
 */
void emitTable(const std::string &section, const TextTable &table);

/**
 * Record a simulation result (windowed time series, top sites) in
 * the report under @p section as @p name. No stdout output.
 */
void emitResult(const std::string &section, const std::string &name,
                const SimResult &result);

/**
 * Record a stat-registry snapshot (e.g. probe counters) in the
 * report under @p section as @p name. No stdout output.
 */
void emitStats(const std::string &section, const std::string &name,
               const StatRegistry &stats);

/**
 * Write the JSON report to the `--json` path, if one was given.
 * The report records the resolved worker-thread count and the
 * bench's elapsed wall-clock seconds since init(), so a series of
 * BENCH_*.json artifacts doubles as a perf trajectory.
 * Returns main()'s exit status.
 */
int finish();

/** Misprediction percentage of spec-built predictor over trace. */
double mispredictPercent(const std::string &spec, const Trace &trace);

/**
 * Median of timing samples (the upper middle one for an even
 * count). @p samples must not be empty.
 */
double median(std::vector<double> samples);

/**
 * Seconds of the calling thread's CPU time that @p body takes.
 * Time the host gives other processes does not count, so a noisy
 * neighbour slows a run without inflating its sample. Only work on
 * the calling thread is counted: time a multi-threaded pool with
 * one worker (which then runs inline).
 */
double cpuSecondsFor(const std::function<void()> &body);

/**
 * The interleaved timing loop: run every one of @p bodies once per
 * round, in order, for @p rounds rounds, and return the samples
 * each body returned, per body in round order. Each body times its
 * own measured part with cpuSecondsFor(), so setup stays outside
 * the clock. Interleaving makes slow machine-wide drift (frequency
 * steps, a neighbour's load) hit every body's samples about
 * equally, so ratios between the bodies' medians stay meaningful;
 * back-to-back batches per body would let minutes-apart drift pass
 * for a difference between bodies.
 */
std::vector<std::vector<double>> interleavedSamples(
    int rounds, const std::vector<std::function<double()>> &bodies);

} // namespace bpred::bench

