/**
 * @file
 * Incremental (streaming) simulation sessions.
 *
 * A SimSession carries the full mid-run state of simulateWithOptions
 * — warmup progress, flush phase, the open window, the per-site
 * mispredict counts — so a trace can be fed in arbitrary chunks and
 * still produce a SimResult byte-identical to the batch loop. The batch
 * entry points in sim/driver.hh are implemented on top of it.
 */

#pragma once

#include <string>

#include "predictors/predictor.hh"
#include "predictors/replay_scratch.hh"
#include "sim/driver.hh"
#include "support/site_table.hh"
#include "trace/stream.hh"
#include "trace/trace.hh"

namespace bpred
{

/**
 * One in-flight simulation of one predictor: construct, feed()
 * record chunks in trace order, then finish() exactly once to
 * collect the SimResult.
 *
 * Construction attaches options.probe (when set); finish() — or the
 * destructor, on an abandoned session — restores the previous sink.
 * The predictor must outlive the session and must not be driven by
 * anything else while the session is open; it is NOT reset first,
 * matching simulateWithOptions().
 *
 * Sessions can be suspended indefinitely between feed() calls,
 * which is what makes multi-tenant serving (several sessions
 * time-sliced over snapshotted predictors) possible — see
 * examples/prediction_server.cpp.
 */
class SimSession
{
  public:
    /**
     * @param predictor Predictor under test (not owned).
     * @param options Simulation knobs; copied, so the caller's
     *        object can die. options.probe is attached here.
     * @param trace_name Trace name to report in the SimResult
     *        (streams usually know it before any records arrive).
     */
    explicit SimSession(Predictor &predictor,
                        const SimOptions &options = SimOptions(),
                        std::string trace_name = "");

    SimSession(const SimSession &) = delete;
    SimSession &operator=(const SimSession &) = delete;

    ~SimSession();

    /**
     * Consume the next @p count records of the trace. Chunk
     * boundaries are invisible to the result: any partition of a
     * trace into feed() calls yields the same SimResult.
     *
     * The chunk is resolved through the predictor's replayBlock()
     * batch kernel, split at warmup, flush and window boundaries so
     * per-segment tallies suffice. Per-branch attribution (top
     * sites, site tallies) asks the kernel for its per-conditional
     * mispredict mask instead of leaving the block path; the
     * result matches a split predict()/update() loop
     * (test_predictor_contract).
     *
     * @throws FatalError when called after finish().
     */
    void feed(const BranchRecord *records, std::size_t count);

    /** Feed every record of @p trace. */
    void
    feed(const Trace &trace)
    {
        feed(trace.records().data(), trace.size());
    }

    /**
     * Close the session: flush the trailing partial window, collect
     * the top sites, detach the probe, and return the result.
     *
     * @throws FatalError on a second call.
     */
    SimResult finish();

    /** True once finish() has been called. */
    bool finished() const { return finished_; }

    /** Conditional branches consumed so far (including warmup). */
    u64 conditionalsSeen() const { return seen; }

    /** Scored conditionals so far (excludes warmup). */
    u64 scoredConditionals() const { return result.conditionals; }

    /** Mispredictions among the scored conditionals so far. */
    u64 mispredictsSoFar() const { return result.mispredicts; }

    /** Late-bind the reported trace name (before finish()). */
    void setTraceName(std::string trace_name);

    /**
     * Borrow a caller-owned ReplayScratch instead of this session's
     * own — a GangSession shares one scratch across all members so
     * the gang carries one set of phase-split staging arrays, not
     * one per member. Null restores the private scratch. The scratch
     * must outlive the session (or its replacement call); its mode
     * is re-stamped from this session's options on every feed, so
     * members with different SimOptions::simd can share safely.
     */
    void useSharedScratch(ReplayScratch *shared);

  private:
    /** The replayBlock() path, segmented at bookkeeping boundaries. */
    void feedBlocks(const BranchRecord *records, std::size_t count);

    /**
     * Per-branch attribution of one replayed segment from the
     * scratch's mispredict mask: with a site tally, the census of
     * every record (SimOptions::siteTally); otherwise, when top
     * sites are asked for, per-site scored mispredict counts.
     */
    void attribute(const BranchRecord *records, std::size_t count,
                   bool in_warmup);

    Predictor &predictor;
    SimOptions options;

    /** Phase-split staging arrays for replayBlock() (reused across
     * feeds; see predictors/replay_scratch.hh). */
    ReplayScratch ownScratch;

    /** The scratch feedBlocks() passes down: ownScratch unless a
     * gang installed a shared one via useSharedScratch(). */
    ReplayScratch *scratch = &ownScratch;

    SimResult result;

    /** Scored mispredicts per site, for the top sites finish()
     * ranks when no site tally is kept; holds only sites that have
     * mispredicted. */
    FlatTable<u64> siteMispredicts;
    WindowSample window;
    u64 seen = 0;
    u64 sinceFlush = 0;
    ProbeSink *previousProbe = nullptr;
    bool finished_ = false;
};

/**
 * Drive @p predictor over everything @p source produces, pulling
 * @p chunk_records at a time — the streaming counterpart of
 * simulateWithOptions(), with identical results.
 */
SimResult simulateSource(Predictor &predictor, TraceSource &source,
                         const SimOptions &options = SimOptions(),
                         std::size_t chunk_records = 65536);

} // namespace bpred

