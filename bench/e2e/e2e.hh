/**
 * @file
 * Shared types of the end-to-end benchmark (bench_e2e).
 *
 * A Workload owns its generated inputs and splits one pass of a
 * paper pipeline into units (one preset's sweep, one corpus run, one
 * block of serving waves), each a call sequence through the
 * library's public entry points; after a traced pass it reports the
 * layer metrics of the calls it makes. The main loop in bench_e2e.cc
 * repeats the units round-robin and times each one, the probes in
 * probes.cc time the layer calls no workload makes directly, and
 * report.cc turns samples into the printed lines and the run JSON.
 */

#pragma once

#include <chrono>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "predictors/predictor.hh"
#include "support/json.hh"
#include "support/types.hh"

namespace bench_e2e
{

using bpred::u64;

/**
 * Worker threads every workload uses. With one, the sweep, corpus
 * and aliasing pools run inline on the calling thread and the serve
 * pool's single shard alternates with the generator, so a run keeps
 * one core busy: on a shared host it is never time-sliced against
 * itself, and its CPU time is the program's own work.
 */
constexpr unsigned workerThreads = 1;

/** Set-ups per run; setup_s is their median. */
constexpr unsigned setupRuns = 3;

/** Seconds elapsed since @p start on the steady clock. */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * CPU seconds this process has used, all threads together. Timed
 * work is measured on this clock, so time the host hands to other
 * processes does not count.
 */
inline double
cpuSeconds()
{
    timespec now{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) +
        1e-9 * static_cast<double>(now.tv_nsec);
}

/** CPU seconds the calling thread has used. */
inline double
threadCpuSeconds()
{
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) +
        1e-9 * static_cast<double>(now.tv_nsec);
}

/** What one run of bench_e2e is asked to do. */
struct Config
{
    std::string workload;

    /** XORed into every preset seed and the serve traffic RNG. */
    u64 seed = 1;

    /** Multiplies every workload's input size (smoke runs use 0.02). */
    double scale = 1.0;

    /** Minimum timed repetitions of every unit. */
    unsigned reps = 3;

    /** Keep repeating until this many wall seconds (0 = off). */
    double seconds = 0.0;

    /** Add a traced pass and the layer probes. */
    bool traced = false;

    std::string jsonPath;

    /** Working directory for corpus and probe files. */
    std::string tmpDir;
};

/**
 * Verification tally: every check is one attempted operation, every
 * failed check one failure (failed_frac = failed / attempted).
 */
struct Verdict
{
    u64 attempted = 0;
    u64 failed = 0;

    /** The first few failure descriptions, for the report. */
    std::vector<std::string> failures;

    /** Count one check; record @p what when @p ok is false. */
    void check(bool ok, const std::string &what);

    /** Count @p count operations of which @p failedCount failed. */
    void tally(u64 count, u64 failedCount, const std::string &what);
};

/** One named measurement with its unit. */
struct Measurement
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Median, quartiles, p90 and p99 of a sample set. */
struct Summary
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    std::size_t n = 0;
};

/**
 * Summarize @p values. Quartiles use the exclusive method of
 * Python's statistics.quantiles(n=4), so compare.py and this binary
 * agree; p90 and p99 are nearest-rank percentiles.
 */
Summary summarize(std::vector<double> values);

/** One row of a traced pass's span table. */
struct SpanRow
{
    std::string lane;
    std::string span;
    u64 count = 0;
    double totalSeconds = 0.0;
    double selfSeconds = 0.0;

    /** Each span's duration and self time, in seconds. */
    std::vector<double> durations;
    std::vector<double> selfDurations;
};

/** Self time per span, plus the share of the rep no layer covers. */
struct SpanReport
{
    /** One row per (lane, span); lanes are "main" and "workers". */
    std::vector<SpanRow> rows;

    /** Wall time of the traced pass's root span. */
    double repSeconds = 0.0;

    /** Root-span self time over its duration. */
    double uncoveredFraction = 0.0;

    /** Every @p span ("category/name") on any lane, merged. */
    SpanRow merged(const std::string &span) const;
};

/**
 * Fold the recorder's buffered spans into self times. The root is
 * the main lane's "bench"/"rep" span; its direct children are the
 * layers.
 */
SpanReport analyzeSpans();

/** Outcome of one run of one unit. */
struct UnitResult
{
    /** Work done (cell-records, records, references...). */
    u64 work = 0;

    /** Operations attempted (cells, files, requests). */
    u64 operations = 0;

    /** Operations that errored. */
    u64 errors = 0;

    /** Order-sensitive hash of the unit's results. */
    u64 digest = 0;

    /** Simulated mispredicts / tagged-table misses and their base. */
    double missed = 0.0;
    double references = 0.0;

    /**
     * CPU milliseconds of each request in the unit; empty when the
     * unit itself is the request.
     */
    std::vector<double> latenciesMs;
};

/** Outcome of one set-up. */
struct SetupResult
{
    /** Records generated by the workload generator. */
    u64 generatedRecords = 0;

    /** Seconds spent generating them. */
    double generateSeconds = 0.0;
};

/**
 * One benchmark workload: inputs plus a pass of work split into
 * units. Every unit does a fixed amount of work, so its CPU time
 * repeats from one run of it to the next.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate (and write, and warm) every input. */
    virtual SetupResult setup() = 0;

    /** Drop the inputs so the next setup() starts from nothing. */
    virtual void release() = 0;

    /** Units in one pass. */
    virtual std::size_t unitCount() const = 0;

    /** Run unit @p unit (< unitCount()) once. */
    virtual UnitResult runUnit(std::size_t unit) = 0;

    /**
     * True when every run of a unit must reproduce the digest of its
     * first run. Serving is stateful (tenants keep training), so it
     * checks per-tenant references instead.
     */
    virtual bool digestRepeats() const { return true; }

    /** Untimed reference checks against independent code paths. */
    virtual void verify(Verdict &verdict) = 0;

    /**
     * Append the layer metrics of this workload's own calls, taken
     * from the pass just traced (@p spans) and the state it left
     * behind.
     */
    virtual void layers(const SpanReport &spans,
                        std::vector<Measurement> &out) = 0;
};

/** Every workload name, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** The workload named @p config.workload, or null when unknown. */
std::unique_ptr<Workload> makeWorkload(const Config &config);

/** Predictor designs per preset in the sweep grid (fig5, fig6/12). */
constexpr unsigned sweepDesigns = 5;

/** Table sizes of the sweep and fig1 grids: 7 sizes from 2^10. */
constexpr unsigned sweepMinBits = 10;
constexpr unsigned sweepSizes = 7;

/** Sweep design @p design (0..4) at N = 2^@p bits entries. */
std::unique_ptr<bpred::Predictor> makeSweepDesign(unsigned design,
                                                  unsigned bits);

/** bp_corpus's default spec grid; the first is the reference. */
const std::vector<std::string> &corpusSpecs();

/**
 * Time, on one seed-derived sample, the layer calls no workload
 * makes directly (decoders, single-thread replay, snapshots, gang
 * and session replay, the aliasing tables). Same inputs for every
 * workload, so a probe's numbers compare across runs directly.
 */
std::vector<Measurement> runLayerProbes(const Config &config,
                                        Verdict &verdict);

/** One end-to-end metric with the samples behind it. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    Summary summary;
};

/** Build and host facts recorded in every run JSON. */
bpred::JsonValue fingerprint(const Config &config);

/** 64-bit FNV-1a step, for result digests. */
inline u64
mixDigest(u64 digest, u64 value)
{
    for (int byte = 0; byte < 8; ++byte) {
        digest ^= (value >> (8 * byte)) & 0xff;
        digest *= 0x100000001b3ULL;
    }
    return digest;
}

/** FNV-1a offset basis. */
constexpr u64 digestSeed = 0xcbf29ce484222325ULL;

} // namespace bench_e2e
