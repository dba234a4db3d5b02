/**
 * @file
 * Parallel sweep execution.
 *
 * Every figure in the paper is a sweep — predictor geometry x trace
 * x options — and each cell is an independent trace-driven run, so
 * the suite is embarrassingly parallel. SweepRunner executes queued
 * simulation jobs on a fixed pool of worker threads while keeping
 * the *results* in submission order, so a bench's tables (and its
 * --json report) are byte-identical to the serial run regardless of
 * the thread count.
 *
 * Determinism / safety model:
 *  - Each job constructs its own Predictor inside the worker (the
 *    factory runs on the worker thread); predictor state is never
 *    shared between jobs.
 *  - The Trace a job references is read-only for the duration of
 *    run(); traces may be shared freely across jobs.
 *  - Per-run state (StatRegistry, site tables, windows, any Rng) is
 *    owned by the job. A ProbeSink passed via SimOptions must not
 *    be shared between jobs unless it is itself thread-safe.
 *  - Workers self-schedule from a shared atomic cursor (the
 *    work-stealing-style distribution degenerates gracefully when
 *    cell costs are skewed: fast workers simply claim more cells).
 *  - Queued cells that replay the SAME trace are grouped into gangs
 *    (sim/gang.hh): one scheduling unit streams the trace once and
 *    replays each cache-resident block through every member, instead
 *    of each cell streaming the whole trace again from cold. Results
 *    stay bit-identical to the per-cell path (GangSession contract),
 *    so tables and --json reports do not change by a byte.
 *
 * Thread count resolution (resolveThreadCount): an explicit request
 * wins, then the BPRED_THREADS environment variable, then
 * std::thread::hardware_concurrency(). Gang width resolution: the
 * BPRED_GANG_WIDTH environment variable when set (1 disables ganging
 * and restores the per-cell path), else jobs/threads so every worker
 * still owns at least one unit.
 */

#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/driver.hh"
#include "support/stat_registry.hh"
#include "trace/trace.hh"

namespace bpred
{

/**
 * The worker-thread count to use: @p requested when positive, else
 * the BPRED_THREADS environment variable (when set to a positive
 * integer), else hardware_concurrency() (min 1).
 */
unsigned resolveThreadCount(unsigned requested = 0);

namespace detail
{

/**
 * Per-worker accounting for one parallelForIndexed() execution,
 * filled when a PoolStats out-param is passed: wall-clock of the
 * whole pool, plus busy nanoseconds and indices claimed per worker
 * slot (idle = wall - busy). The overhead is two steady_clock
 * reads per claimed index — absorbed by any real job.
 */
struct PoolStats
{
    /** Worker slots the pool actually ran (1 for the inline path). */
    unsigned workers = 0;

    /** Wall-clock nanoseconds from first spawn to last join. */
    u64 wallNs = 0;

    /** Nanoseconds each worker spent executing job bodies. */
    std::vector<u64> busyNs;

    /** Indices each worker claimed from the shared cursor. */
    std::vector<u64> claimed;
};

/**
 * Invoke @p body(index) for every index in [0, count) on a pool of
 * @p threads workers (capped at @p count; <= 1 runs inline on the
 * calling thread). Blocks until all indices have been processed.
 * When jobs throw, every remaining index is still executed and the
 * lowest-index exception is rethrown after the pool has joined —
 * one bad cell never wedges or poisons the pool.
 *
 * When @p stats is non-null it is overwritten with this
 * execution's per-worker accounting. Worker threads label their
 * trace lanes "sweep-worker-N" when tracing is recording.
 */
void parallelForIndexed(std::size_t count,
                        const std::function<void(std::size_t)> &body,
                        unsigned threads,
                        PoolStats *stats = nullptr);

/**
 * The pool slot of the calling thread while inside a
 * parallelForIndexed() worker (0 on the inline path and outside
 * any pool). Used to attribute failures and trace lanes.
 */
unsigned currentWorkerIndex();

} // namespace detail

/**
 * Run arbitrary result-returning jobs on a worker pool; the result
 * vector is in submission order. @p threads is resolved through
 * resolveThreadCount(). T must be default-constructible. Used for
 * sweep cells that are not plain predictor simulations (e.g. the
 * Figure 1/2 tagged-table measurements).
 */
template <typename T>
std::vector<T>
parallelMap(const std::vector<std::function<T()>> &jobs,
            unsigned threads = 0)
{
    std::vector<T> results(jobs.size());
    detail::parallelForIndexed(
        jobs.size(),
        [&](std::size_t index) { results[index] = jobs[index](); },
        resolveThreadCount(threads));
    return results;
}

/**
 * A queue of independent simulation jobs executed by a fixed thread
 * pool. Usage:
 *
 *   SweepRunner runner(threads);          // 0 = env / hardware
 *   auto a = runner.enqueue("gshare:14:12", trace);
 *   auto b = runner.enqueue([] { return makeMyPredictor(); }, other);
 *   std::vector<SimResult> results = runner.run();
 *   // results[a], results[b]: identical to the serial simulate()
 *
 * run() clears the queue, so a runner can execute several batches.
 */
class SweepRunner
{
  public:
    /** Builds one predictor; runs on the worker thread. */
    using PredictorFactory = std::function<std::unique_ptr<Predictor>()>;

    /**
     * @param threads Worker count; 0 resolves via resolveThreadCount.
     * @param block_records Records per gang replay block; 0 picks
     *        defaultReplayBlockRecords (sim/gang.hh).
     */
    explicit SweepRunner(unsigned threads = 0,
                         std::size_t block_records = 0);

    /**
     * Queue one simulation of a factory-built predictor over
     * @p trace. The trace must stay alive and unmodified until
     * run() returns. Returns the job's index into run()'s result
     * vector. @p label names the cell in failure messages (a spec
     * string, a figure coordinate); empty falls back to "factory".
     */
    std::size_t enqueue(PredictorFactory factory, const Trace &trace,
                        SimOptions options = {},
                        std::string label = "");

    /**
     * As above with a factory spec string (sim/factory.hh); the
     * spec doubles as the cell label.
     */
    std::size_t enqueue(const std::string &spec, const Trace &trace,
                        SimOptions options = {});

    /** Jobs queued and not yet run. */
    std::size_t pending() const { return jobs.size(); }

    /** The resolved worker-thread count. */
    unsigned threads() const { return threadCount; }

    /** Records per gang replay block. */
    std::size_t blockRecords() const { return blockRecords_; }

    /**
     * Execute every queued job and return their SimResults in
     * submission order (element-wise identical to calling
     * simulateWithOptions serially, whatever the thread count or
     * gang width — same-trace jobs are ganged, but GangSession is
     * bit-identical to independent sessions). The queue is cleared
     * even on failure; if jobs threw, the lowest-index exception is
     * rethrown after all workers joined — annotated with the cell
     * index, its label, its trace, and the worker thread that ran
     * it, so a failed sweep cell is attributable from the log
     * alone.
     */
    std::vector<SimResult> run();

    /**
     * Accumulated engine metrics across every run() on this
     * runner: cells/gangs executed, gang occupancy histogram, and
     * per-worker busy/idle/claimed accounting ("sweep.*"). The
     * same deltas are merged into the process-wide engineStats()
     * registry, which `--stats-out` exports.
     */
    const StatRegistry &metrics() const { return metrics_; }

  private:
    struct Job
    {
        PredictorFactory factory;
        const Trace *trace;
        SimOptions options;
        std::string label;
    };

    /** Run one gang of same-trace jobs on the calling worker. */
    void runGang(const std::vector<Job> &batch,
                 const std::vector<std::size_t> &members,
                 std::vector<SimResult> &results,
                 std::vector<std::exception_ptr> &errors) const;

    /** Fold one run()'s accounting into metrics_ and engineStats(). */
    void recordRunMetrics(const std::vector<Job> &batch,
                          const std::vector<std::vector<std::size_t>> &gangs,
                          const std::vector<std::exception_ptr> &errors,
                          const detail::PoolStats &pool);

    std::vector<Job> jobs;
    unsigned threadCount;
    std::size_t blockRecords_;
    StatRegistry metrics_;
};

} // namespace bpred

