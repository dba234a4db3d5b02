/**
 * @file
 * Corpus sweeps: fan a directory of trace files across the worker
 * pool, gang-replaying every requested predictor spec per trace.
 *
 * The "Workload Characterization for Branch Predictability" line of
 * work (PAPERS.md) is blunt that single-trace conclusions do not
 * generalize; this runner is how the repo evaluates a predictor
 * grid over a whole corpus in one deterministic pass. Each file is
 * one pool job: its trace is ingested zero-copy when possible (one
 * shared mmap per .bpt file, see trace/mmap_source.hh; text and gz
 * corpora enter through trace/adapters.hh), streamed once, and
 * replayed through every spec by a GangSession — so adding specs
 * costs replay work, never another decode pass.
 *
 * Determinism contract: the report (stdout tables and JSON) is
 * byte-identical for any thread count. Files are processed in
 * sorted-name order, results keep submission order (parallelMap),
 * replay is the gang contract, and the reference member's site
 * tallies (SimOptions::siteTally) count exactly. Timings therefore
 * never appear in the report.
 */

#pragma once

#include <string>
#include <vector>

#include "sim/parallel.hh"
#include "trace/trace.hh"

namespace bpred
{

/** Knobs for runCorpus(). */
struct CorpusOptions
{
    /**
     * Predictor specs replayed over every trace (factory syntax,
     * see sim/factory.hh). The first spec is the *reference*: its
     * member carries the exact per-site tallies behind the
     * classification and top-K site attribution.
     */
    std::vector<std::string> specs;

    /** Baseline per-member simulation options (warmup, windows...). */
    SimOptions sim;

    /** Worker threads; 0 resolves via resolveThreadCount(). */
    unsigned threads = 0;

    /** Records per gang replay block; 0 picks the default. */
    std::size_t blockRecords = 0;

    /**
     * Length of the report's hardest-site list and of the reference
     * member's top_sites. 0 disables classification; the file stats
     * and per-spec tallies do not depend on it.
     */
    std::size_t topSites = 16;

    /**
     * Sites with fewer dynamic executions than this classify as
     * "cold" rather than by ratio — a 1-in-2 miss rate over 4
     * executions says nothing about predictability.
     */
    u64 classifyMinBranches = 16;

    /** Per-site mispredict ratio at or below this is "easy". */
    double easyThreshold = 0.05;

    /** Per-site mispredict ratio above this is "hard". */
    double hardThreshold = 0.20;
};

/** Per-branch-site predictability class (reference predictor). */
enum class Predictability
{
    Easy,
    Medium,
    Hard,
    Cold,
};

/** Stable lowercase name ("easy", "medium", "hard", "cold"). */
const char *predictabilityName(Predictability klass);

/** One classified static branch site. */
struct SitePredictability
{
    Addr pc = 0;

    /** Dynamic conditional executions at this site. */
    u64 branches = 0;

    /** Reference-predictor mispredictions at this site. */
    u64 mispredicts = 0;

    Predictability klass = Predictability::Cold;
};

/** Whole-trace predictability summary under the reference spec. */
struct CorpusClassification
{
    u64 easySites = 0;
    u64 mediumSites = 0;
    u64 hardSites = 0;
    u64 coldSites = 0;

    /** Mispredictions attributed to hard sites. */
    u64 hardMispredicts = 0;

    /** All scored mispredictions (denominator for the share). */
    u64 totalMispredicts = 0;

    /** Hardest sites, by mispredicts desc then pc asc. */
    std::vector<SitePredictability> hardest;

    /** Fraction of mispredictions concentrated in hard sites. */
    double hardShare() const;
};

/** Outcome for one trace file of the corpus. */
struct CorpusFileResult
{
    /** File name within the corpus directory (no path). */
    std::string file;

    /** Benchmark name from the trace itself. */
    std::string traceName;

    /** Ingestion path taken: "mmap", "stream" or "memory". */
    std::string ingest;

    /** Total records replayed (conditional + unconditional). */
    u64 records = 0;

    TraceStats stats;

    /** One result per spec, in CorpusOptions::specs order. */
    std::vector<SimResult> results;

    CorpusClassification classes;

    /**
     * Non-empty when this file failed (unreadable, corrupt,
     * member error); the other fields are then unpopulated. One
     * bad file never aborts the corpus.
     */
    std::string error;

    JsonValue toJson() const;
};

/** The merged corpus report. */
struct CorpusReport
{
    std::string directory;
    std::vector<std::string> specs;

    /** Per-file outcomes, in sorted file-name order. */
    std::vector<CorpusFileResult> files;

    /**
     * The whole report as one JSON document: per-file results plus
     * a per-spec aggregate over the successful files. Contains no
     * timing values, so reports byte-diff across thread counts.
     */
    JsonValue toJson() const;
};

/**
 * Trace files under @p directory (non-recursive), sorted by name:
 * every extension the adapters recognize (.bpt, .bpt.gz, .txt,
 * .txt.gz, .trace, .trace.gz).
 *
 * @throws FatalError when @p directory is not a directory.
 */
std::vector<std::string> listTraceFiles(const std::string &directory);

/**
 * Replay every spec over every trace file in @p directory.
 *
 * @throws FatalError on an empty spec list, a spec the factory
 *         cannot build (malformed or out of range), or a
 *         directory with no trace files. Per-file failures are
 *         parked in CorpusFileResult::error instead.
 */
CorpusReport runCorpus(const std::string &directory,
                       const CorpusOptions &options);

} // namespace bpred
