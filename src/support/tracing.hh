/**
 * @file
 * Low-overhead structured tracing with Chrome/Perfetto export.
 *
 * The engine layers (SweepRunner, GangSession, SimSession, the
 * bench drivers) mark their phases with RAII spans and instant
 * events; the recorder collects them into per-thread buffers and
 * exports one Chrome trace-event JSON file that opens directly in
 * ui.perfetto.dev or chrome://tracing — one lane per thread, spans
 * for trace-generation / gang-block / member-replay / session
 * phases, instants for exceptions and warmup boundaries.
 *
 * Cost model (the defining constraint):
 *  - Disabled (the default), TRACE_SCOPE compiles to one relaxed
 *    atomic load and branch at scope entry and a dead-flag branch
 *    at exit. No allocation, no clock read, no buffer touch; the
 *    replay-kernel throughput bands must not move.
 *  - Enabled, each event is one steady_clock read (two for spans)
 *    plus one append to a buffer owned by the recording thread —
 *    no locks, no sharing on the hot path. The global registry
 *    mutex is taken only when a thread records its first event
 *    (buffer registration) and during export/reset.
 *
 * Concurrency contract: appends are safe from any number of
 * threads concurrently (each writes only its own buffer).
 * writeChromeTrace() and reset() require quiescence — call them
 * only while no instrumented code is running (benches export from
 * finish(), after every worker pool has joined).
 *
 * Span and event names must be string literals: they are stored as
 * `const char *` without copying, and the hot path must never
 * format strings. The macros below force this with `"" name`
 * concatenation (a non-literal fails to compile) and bp_lint's
 * trace-literal rule enforces it statically. Dynamic values go in
 * the optional numeric args (rendered in the Perfetto detail pane)
 * or in setThreadName(), which is registration-time only.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "support/types.hh"

namespace bpred::trace
{

namespace detail
{
/** Recording master switch; use enabled()/setEnabled(). */
extern std::atomic<bool> recording;
} // namespace detail

/** True while the recorder accepts events. */
inline bool
enabled()
{
    return detail::recording.load(std::memory_order_relaxed);
}

/**
 * Start or stop recording. Turning recording off does not discard
 * events already buffered; reset() does.
 */
void setEnabled(bool on);

/** One recorded event (span, instant, or counter sample). */
struct TraceEvent
{
    enum class Kind : unsigned char
    {
        span,
        instant,
        counter
    };

    /** Category literal, e.g. "gang" (never owned). */
    const char *category = nullptr;

    /** Name literal, e.g. "block" (never owned). */
    const char *name = nullptr;

    /** Start time, nanoseconds since the recorder epoch. */
    u64 startNs = 0;

    /** Span duration in nanoseconds (0 for instants/counters). */
    u64 durationNs = 0;

    /** Counter sample value (counters only). */
    double value = 0.0;

    /** Optional numeric args (index / count), spans only. */
    u64 argIndex = 0;
    u64 argCount = 0;

    Kind kind = Kind::span;
    bool hasArgs = false;
};

/**
 * RAII span: records [construction, destruction) as one complete
 * event on the current thread's lane. Use via TRACE_SCOPE so names
 * stay literals.
 */
class Scope
{
  public:
    Scope(const char *category, const char *name)
    {
        if (enabled()) {
            begin(category, name, 0, 0, false);
        }
    }

    /** Span with numeric args (e.g. block index, member count). */
    Scope(const char *category, const char *name, u64 arg_index,
          u64 arg_count)
    {
        if (enabled()) {
            begin(category, name, arg_index, arg_count, true);
        }
    }

    ~Scope()
    {
        if (live) {
            end();
        }
    }

    /**
     * Attach numeric args known only when the span closes (e.g. the
     * record count a parse produced). Declare the span as a named
     * `trace::Scope` with literal names to reach this; bp_lint's
     * trace-literal rule checks those names as it does TRACE_SCOPE's.
     */
    void
    setArgs(u64 arg_index, u64 arg_count)
    {
        argIndex = arg_index;
        argCount = arg_count;
        hasArgs = true;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    void begin(const char *category, const char *name,
               u64 arg_index, u64 arg_count, bool has_args);
    void end();

    const char *category_ = nullptr;
    const char *name_ = nullptr;
    u64 start = 0;
    u64 argIndex = 0;
    u64 argCount = 0;
    bool hasArgs = false;
    bool live = false;
};

namespace detail
{
void instantAlways(const char *category, const char *name);
void counterAlways(const char *category, const char *name,
                   double value);
} // namespace detail

/** Record a zero-duration marker (exceptions, phase boundaries). */
inline void
instant(const char *category, const char *name)
{
    if (enabled()) {
        detail::instantAlways(category, name);
    }
}

/** Record one sample of a named counter series. */
inline void
counter(const char *category, const char *name, double value)
{
    if (enabled()) {
        detail::counterAlways(category, name, value);
    }
}

/**
 * Label the calling thread's lane ("sweep-worker-3"). No-op while
 * recording is disabled; threads registered without a name export
 * as "thread-<tid>".
 */
void setThreadName(const std::string &name);

/** Nanoseconds since the recorder epoch (steady clock). */
u64 nowNs();

/**
 * Cap on buffered events per thread (default 1M). Events beyond
 * the cap are counted as dropped, never buffered — recording can
 * not grow without bound on a runaway loop.
 */
void setCapacityPerThread(std::size_t max_events);

/** Threads that have recorded at least one event (ever). */
std::size_t threadCount();

/** Events currently buffered across all threads. */
std::size_t eventCount();

/** Events dropped on full buffers since the last reset(). */
u64 droppedCount();

/** Discard all buffered events (quiescence required; lanes stay). */
void reset();

/** One thread's lane, copied out for inspection in tests. */
struct ThreadSnapshot
{
    unsigned tid = 0;
    std::string name;
    std::vector<TraceEvent> events;
    u64 dropped = 0;
};

/** Copy every lane in tid order (quiescence required). */
std::vector<ThreadSnapshot> snapshot();

/**
 * Export every buffered event as Chrome trace-event JSON
 * ({"traceEvents": [...]}, timestamps in microseconds) — the
 * format ui.perfetto.dev and chrome://tracing load natively.
 * Quiescence required. Returns false on a stream error.
 */
bool writeChromeTrace(std::ostream &os);

/** writeChromeTrace() into @p path; warns and returns false on I/O errors. */
bool writeChromeTrace(const std::string &path);

} // namespace bpred::trace

#define BPRED_TRACE_JOIN2(a, b) a##b
#define BPRED_TRACE_JOIN(a, b) BPRED_TRACE_JOIN2(a, b)

/**
 * Mark the enclosing scope as a span: TRACE_SCOPE("gang", "block")
 * or TRACE_SCOPE("gang", "block", index, count) with numeric args.
 * Category and name must be string literals (`"" x` rejects
 * anything else at compile time; bp_lint: trace-literal).
 */
#define TRACE_SCOPE(category, name, ...)                             \
    ::bpred::trace::Scope BPRED_TRACE_JOIN(bpredTraceScope_,         \
                                           __LINE__)(                \
        "" category, "" name __VA_OPT__(, ) __VA_ARGS__)

/** Record an instant marker; literal-args contract as TRACE_SCOPE. */
#define TRACE_INSTANT(category, name)                                \
    ::bpred::trace::instant("" category, "" name)

/** Record a counter sample; literal-args contract as TRACE_SCOPE. */
#define TRACE_COUNTER(category, name, value)                         \
    ::bpred::trace::counter("" category, "" name, (value))
