/**
 * @file
 * Gang replay: one trace pass feeding many predictors.
 *
 * Every figure-style sweep replays the *same* trace over a grid of
 * predictor configurations, and the trace is by far the largest
 * working set the simulator touches. A GangSession carries one
 * SimSession per gang member and advances the gang through the
 * trace in cache-resident blocks (defaultReplayBlockRecords records
 * at a time): each block is decoded/streamed from memory once and
 * then replayed by every member while it is hot in L1/L2, instead
 * of each cell streaming the whole trace again from cold. Inside
 * each member the block is resolved through the predictor's
 * replayBlock() batch kernel (sim/session.hh), so the inner loop
 * costs one virtual dispatch per block, not one per branch.
 *
 * Results are bit-identical to running each member in its own
 * independent SimSession — SimSession::feed is chunk-invariant and
 * replayBlock() is contract-equivalent to the scalar step — which
 * is what lets SweepRunner (sim/parallel.hh) gang same-trace sweep
 * cells without changing a byte of bench output.
 */

#pragma once

#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "sim/session.hh"

namespace bpred
{

/**
 * Records per replay block: sized so a block (~8K records x 16 B)
 * plus a few predictor tables stays comfortably inside L2.
 */
constexpr std::size_t defaultReplayBlockRecords = 8192;

/**
 * One in-flight gang simulation: add() the members, feed() the
 * shared trace in arbitrary chunks, then finish() exactly once for
 * the per-member SimResults (in add() order).
 *
 * Members fail independently: an exception thrown while feeding or
 * finishing one member is parked (see memberError()) and the rest
 * of the gang replays on — mirroring SweepRunner's one-bad-cell
 * contract. Each member owns its options (probe, warmup, windows,
 * top sites may differ across the gang); only the trace is shared.
 */
class GangSession
{
  public:
    /** @param block_records Records per block; 0 picks the default. */
    explicit GangSession(
        std::size_t block_records = defaultReplayBlockRecords);

    GangSession(const GangSession &) = delete;
    GangSession &operator=(const GangSession &) = delete;

    /**
     * Enrol @p predictor (not owned; must outlive the session) with
     * its own simulation options. Returns the member's index into
     * finish()'s result vector.
     *
     * @throws FatalError once feeding has started — a late member
     *         would silently miss the records already replayed.
     */
    std::size_t add(Predictor &predictor,
                    const SimOptions &options = SimOptions(),
                    std::string trace_name = "");

    /** Members enrolled so far. */
    std::size_t size() const { return members.size(); }

    /** The block size records are replayed in. */
    std::size_t blockRecords() const { return blockRecords_; }

    /**
     * Replay the next @p count records of the shared trace through
     * every healthy member, one cache-resident block at a time.
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
     * Close every member session and return their SimResults in
     * add() order. A failed member's slot holds a default-initialized
     * SimResult; consult memberError(). @throws FatalError on a
     * second call.
     */
    std::vector<SimResult> finish();

    /** True once finish() has been called. */
    bool finished() const { return finished_; }

    /**
     * The exception that disabled member @p index, or null while it
     * is healthy. Parked errors survive finish().
     */
    std::exception_ptr memberError(std::size_t index) const;

  private:
    struct Member
    {
        std::unique_ptr<SimSession> session;
        std::exception_ptr error;
    };

    std::vector<Member> members;

    /**
     * One phase-split staging scratch shared by every member
     * session (SimSession::useSharedScratch): the gang replays the
     * same block through each member back to back, so the staging
     * arrays stay hot and are allocated once per gang, not once per
     * cell. feed() opens each block on it for the member loop, so
     * the block is compacted once for all members that enter it
     * with the same history (ReplayScratch::openBlock()).
     */
    ReplayScratch sharedScratch;

    std::size_t blockRecords_;
    bool fedAny = false;
    bool finished_ = false;
};

/**
 * Replay @p trace once through a gang of @p predictors (all under
 * the same @p options) and return their SimResults in input order —
 * bit-identical to calling simulateWithOptions() per predictor, in
 * one trace pass instead of predictors.size() passes.
 *
 * Rethrows the lowest-index member failure after the whole gang has
 * been driven, matching SweepRunner::run().
 */
std::vector<SimResult> simulateGang(
    const std::vector<Predictor *> &predictors, const Trace &trace,
    const SimOptions &options = SimOptions(),
    std::size_t block_records = defaultReplayBlockRecords);

} // namespace bpred
