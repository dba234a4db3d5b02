/**
 * @file
 * The trace-driven simulation loop.
 */

#pragma once

#include <string>
#include <vector>

#include "predictors/predictor.hh"
#include "support/json.hh"
#include "support/site_table.hh"
#include "support/simd.hh"
#include "trace/trace.hh"

namespace bpred
{

class ProbeSink;
class StatRegistry;

/** One fixed-size window of the misprediction time series. */
struct WindowSample
{
    /** Conditional branches scored in this window. */
    u64 branches = 0;

    /** Mispredictions among them. */
    u64 mispredicts = 0;

    /** Misprediction ratio of the window. */
    double
    ratio() const
    {
        return branches == 0
            ? 0.0
            : static_cast<double>(mispredicts) /
                static_cast<double>(branches);
    }
};

/** Misprediction attribution for one branch site (PC). */
struct SiteCount
{
    Addr pc = 0;

    /** Scored mispredictions at this site (warmup excluded); exact. */
    u64 mispredicts = 0;
};

/** Knobs for simulateWithOptions(); defaults reproduce simulate(). */
struct SimOptions
{
    /** Train (but do not score) the first N conditional branches. */
    u64 warmupBranches = 0;

    /**
     * reset() the predictor after every N conditional branches — a
     * crude model of predictor-state loss on heavyweight context
     * switches. 0 disables.
     */
    u64 flushInterval = 0;

    /**
     * Record a misprediction time series with N scored conditional
     * branches per window (a trailing partial window is kept).
     * 0 disables.
     */
    u64 windowSize = 0;

    /**
     * Attribute scored mispredictions to branch sites and report the
     * N sites with the most, exactly (ties by pc ascending). The
     * session counts every mispredicting site, so memory grows with
     * the distinct mispredicting sites, not with N. 0 disables.
     */
    std::size_t topSites = 0;

    /**
     * Telemetry sink attached to the predictor for the duration of
     * the run (the previous sink is restored afterwards). Null
     * leaves the predictor untouched.
     */
    ProbeSink *probe = nullptr;

    /**
     * Exact per-site census: when set, the session adds every
     * record it replays — warmup included, either kind — to this
     * table (see SiteCounts), reading mispredicts from the replay
     * kernels' mispredict mask (predictors/replay_scratch.hh). The
     * session's top sites are then ranked from the table's scored
     * mispredicts, so it must start empty. The table is
     * caller-owned and NOT thread-safe: one per session. Null (the
     * default) records nothing.
     */
    SiteTable *siteTally = nullptr;

    /**
     * Index/hash kernel dispatch for the block replay path (see
     * support/simd.hh): Auto defers to the BPRED_SIMD environment
     * variable and then the CPU probe; Avx2 requests the phase-split
     * vector kernels; Scalar pins the scalar block kernel, which the
     * vector path is byte-identical to. Ignored while
     * a probe is attached (probed replay runs the scalar default
     * Predictor::replayBlock()).
     */
    SimdMode simd = SimdMode::Auto;

    /**
     * Session metrics sink: when set, the SimSession records its
     * feed-phase accounting (feed calls, records consumed,
     * per-feed seconds) under "session.*" in this registry. The
     * registry is caller-owned and NOT thread-safe — never share
     * one across concurrent sessions (give each sweep cell or
     * served tenant its own). Null (the default) records nothing
     * and costs one branch per feed() call.
     */
    StatRegistry *metrics = nullptr;
};

/** Outcome of simulating one predictor over one trace. */
struct SimResult
{
    std::string predictorName;
    std::string traceName;

    /** Dynamic conditional branches predicted. */
    u64 conditionals = 0;

    /** Mispredicted conditional branches. */
    u64 mispredicts = 0;

    /** Predictor hardware budget in bits. */
    u64 storageBits = 0;

    /** Window size used for the time series (0 = not recorded). */
    u64 windowSize = 0;

    /** Misprediction time series (empty unless requested). */
    std::vector<WindowSample> windows;

    /**
     * Worst branch sites by misprediction count, highest first
     * (empty unless requested).
     */
    std::vector<SiteCount> topSites;

    /** Misprediction ratio in [0, 1]. */
    double
    mispredictRatio() const
    {
        return conditionals == 0
            ? 0.0
            : static_cast<double>(mispredicts) /
                static_cast<double>(conditionals);
    }

    /** Misprediction ratio as a percentage. */
    double mispredictPercent() const { return mispredictRatio() * 100.0; }

    /**
     * The result as JSON: scalars, plus "windows" and "top_sites"
     * members when those were recorded.
     */
    JsonValue toJson() const;
};

/**
 * Run @p predictor over @p trace from a cold start: resolve the
 * trace through the predictor's replayBlock() kernels (observably
 * identical to predict() + update() per conditional branch and
 * notifyUnconditional() per unconditional one), and count
 * mispredictions — honouring every knob in @p options.
 *
 * The predictor is NOT reset first; callers reusing a predictor
 * across traces should call reset() themselves (warm-start studies
 * rely on this).
 */
SimResult simulateWithOptions(Predictor &predictor, const Trace &trace,
                              const SimOptions &options);

/** simulateWithOptions() with default options. */
SimResult simulate(Predictor &predictor, const Trace &trace);

} // namespace bpred

