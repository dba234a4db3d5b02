/**
 * @file
 * The observability layer: tracing recorder + exporter, perf
 * counter fallback, engine metrics, and the defining regression —
 * gang sweep results are byte-identical with tracing enabled.
 *
 * The recorder is process-global (lanes are never unregistered), so
 * every test starts by disabling recording and clearing buffered
 * events; lane/thread counts are asserted as deltas, never as
 * absolutes.
 */

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "sim/factory.hh"
#include "sim/parallel.hh"
#include "sim/session.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/memmeter.hh"
#include "support/perfcount.hh"
#include "support/rng.hh"
#include "support/stat_registry.hh"
#include "support/tracing.hh"
#include "trace/trace.hh"
#include "trace/trace_io.hh"

namespace
{

using namespace bpred;

// Event names are literals by type: the recorder keeps the pointer,
// so anything but a constant character array must not compile.
static_assert(std::is_constructible_v<trace::Literal, const char (&)[6]>);
static_assert(!std::is_constructible_v<trace::Literal, const char *>);
static_assert(!std::is_constructible_v<trace::Literal, std::string>);
static_assert(
    !std::is_constructible_v<trace::Scope, const char *, const char *>);

/** Fresh recorder state: recording off, buffers empty. */
void
quiesce()
{
    trace::setEnabled(false);
    trace::reset();
    trace::setCapacityPerThread(std::size_t(1) << 20);
}

Trace
smallTrace(unsigned seed, std::size_t records = 4096)
{
    Trace trace("traced");
    Rng rng(seed);
    for (std::size_t i = 0; i < records; ++i) {
        const Addr pc = 0x4000 + 4 * rng.uniformInt(512);
        if (rng.chance(0.2)) {
            trace.appendUnconditional(pc);
        } else {
            trace.appendConditional(pc, rng.chance(0.6));
        }
    }
    return trace;
}

TEST(Tracing, DisabledModeBuffersAndAllocatesNothing)
{
    quiesce();
    const u64 allocBefore = AllocGauge::current();
    const std::size_t eventsBefore = trace::eventCount();
    for (int i = 0; i < 10000; ++i) {
        TRACE_SCOPE("test", "disabled", u64(i), 10000);
        TRACE_INSTANT("test", "marker");
        TRACE_COUNTER("test", "value", double(i));
    }
    EXPECT_EQ(trace::eventCount(), eventsBefore);
    EXPECT_EQ(AllocGauge::current(), allocBefore);
    EXPECT_EQ(trace::droppedCount(), 0u);
}

TEST(Tracing, SpansInstantsAndCountersAreRecorded)
{
    quiesce();
    trace::setEnabled(true);
    {
        TRACE_SCOPE("test", "span", 3, 7);
        TRACE_INSTANT("test", "marker");
    }
    TRACE_COUNTER("test", "gauge", 2.5);
    trace::setEnabled(false);

    EXPECT_EQ(trace::eventCount(), 3u);
    const std::vector<trace::ThreadSnapshot> lanes =
        trace::snapshot();
    const trace::ThreadSnapshot *mine = nullptr;
    for (const trace::ThreadSnapshot &lane : lanes) {
        if (!lane.events.empty()) {
            mine = &lane;
        }
    }
    ASSERT_NE(mine, nullptr);
    ASSERT_EQ(mine->events.size(), 3u);

    // The instant lands before the enclosing span (spans are
    // emitted at scope exit), and the counter last.
    EXPECT_EQ(mine->events[0].kind, trace::TraceEvent::Kind::instant);
    EXPECT_EQ(std::string(mine->events[0].name), "marker");
    EXPECT_EQ(mine->events[1].kind, trace::TraceEvent::Kind::span);
    EXPECT_EQ(std::string(mine->events[1].category), "test");
    EXPECT_TRUE(mine->events[1].hasArgs);
    EXPECT_EQ(mine->events[1].argIndex, 3u);
    EXPECT_EQ(mine->events[1].argCount, 7u);
    EXPECT_LE(mine->events[1].startNs, mine->events[0].startNs);
    EXPECT_EQ(mine->events[2].kind, trace::TraceEvent::Kind::counter);
    EXPECT_DOUBLE_EQ(mine->events[2].value, 2.5);
}

TEST(Tracing, TextParseSpanCarriesByteAndRecordCounts)
{
    quiesce();
    const std::string text = "# two records\nC 40 T\nU 44 T\n";
    trace::setEnabled(true);
    const Trace parsed = parseTextTrace(text, "spans");
    trace::setEnabled(false);

    const std::vector<trace::ThreadSnapshot> lanes = trace::snapshot();
    const trace::TraceEvent *parse = nullptr;
    for (const trace::ThreadSnapshot &lane : lanes) {
        for (const trace::TraceEvent &event : lane.events) {
            if (std::string(event.name) == "text-parse") {
                parse = &event;
            }
        }
    }
    ASSERT_NE(parse, nullptr);
    EXPECT_EQ(std::string(parse->category), "ingest");
    EXPECT_TRUE(parse->hasArgs);
    EXPECT_EQ(parse->argIndex, text.size());
    EXPECT_EQ(parse->argCount, parsed.size());
    EXPECT_EQ(parsed.size(), 2u);
}

TEST(Tracing, ExporterEscapesQuotesBackslashesAndNonAscii)
{
    quiesce();
    trace::setEnabled(true);
    trace::setThreadName("lane \"zero\"\\one");
    TRACE_INSTANT("cat\"egory", "na\\me-\xC3\xA9");
    trace::setEnabled(false);

    std::ostringstream out;
    ASSERT_TRUE(trace::writeChromeTrace(out));
    const std::string json = out.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // Quote and backslash are escaped; the UTF-8 name survives in
    // some JSON-legal form (raw bytes or \u escape), never as a
    // bare quote-breaking sequence.
    EXPECT_NE(json.find("cat\\\"egory"), std::string::npos);
    EXPECT_NE(json.find("na\\\\me-"), std::string::npos);
    EXPECT_NE(json.find("lane \\\"zero\\\"\\\\one"),
              std::string::npos);
}

TEST(Tracing, PerThreadLanesKeepOrderAndNames)
{
    quiesce();
    trace::setEnabled(true);
    constexpr int perThread = 64;
    auto record = [](const char *name) {
        trace::setThreadName(name);
        for (int i = 0; i < perThread; ++i) {
            TRACE_INSTANT("lanes", "tick");
        }
    };
    std::thread a(record, "lane-a");
    std::thread b(record, "lane-b");
    a.join();
    b.join();
    trace::setEnabled(false);

    int named = 0;
    for (const trace::ThreadSnapshot &lane : trace::snapshot()) {
        if (lane.name != "lane-a" && lane.name != "lane-b") {
            continue;
        }
        ++named;
        ASSERT_EQ(lane.events.size(),
                  std::size_t(perThread));
        for (std::size_t i = 1; i < lane.events.size(); ++i) {
            EXPECT_LE(lane.events[i - 1].startNs,
                      lane.events[i].startNs);
        }
    }
    EXPECT_EQ(named, 2);

    // Both lanes export with their thread_name metadata.
    std::ostringstream out;
    ASSERT_TRUE(trace::writeChromeTrace(out));
    EXPECT_NE(out.str().find("lane-a"), std::string::npos);
    EXPECT_NE(out.str().find("lane-b"), std::string::npos);
}

TEST(Tracing, FullBuffersCountDropsInsteadOfGrowing)
{
    quiesce();
    trace::setCapacityPerThread(5);
    trace::setEnabled(true);
    const std::size_t before = trace::eventCount();
    for (int i = 0; i < 12; ++i) {
        TRACE_INSTANT("cap", "tick");
    }
    trace::setEnabled(false);
    EXPECT_EQ(trace::eventCount() - before, 5u);
    EXPECT_EQ(trace::droppedCount(), 7u);
    quiesce(); // restore the default capacity for later tests
}

TEST(Tracing, PerfCounterGroupDegradesGracefully)
{
    PerfCounterGroup group;
    group.start();
    volatile double sink = 0.0;
    for (int i = 0; i < 200000; ++i) {
        sink = sink + double(i) * 1.5;
    }
    const PerfSample sample = group.stop();
    EXPECT_EQ(sample.valid, group.available());
    if (sample.valid) {
        EXPECT_GT(sample.cycles, 0u);
        EXPECT_GT(sample.instructions, 0u);
        EXPECT_GT(sample.ipc(), 0.0);
    } else {
        // The fallback contract: no-ops, zeroed sample, 0 metrics.
        EXPECT_EQ(sample.cycles, 0u);
        EXPECT_EQ(sample.instructions, 0u);
        EXPECT_DOUBLE_EQ(sample.ipc(), 0.0);
    }
    EXPECT_DOUBLE_EQ(PerfSample::perKilo(30, 1000.0), 30.0);
    EXPECT_DOUBLE_EQ(PerfSample::perKilo(5, 0.0), 0.0);
}

TEST(Tracing, SessionMetricsLandInTheRegistry)
{
    const Trace trace = smallTrace(7);
    StatRegistry metrics;
    SimOptions options;
    options.metrics = &metrics;
    auto predictor = makePredictor("gshare:8:6");
    SimSession session(*predictor, options, trace.name());
    session.feed(trace);
    const SimResult result = session.finish();

    EXPECT_EQ(metrics.counter("session.feeds"), 1u);
    EXPECT_EQ(metrics.counter("session.records"), trace.size());
    EXPECT_EQ(metrics.counter("session.conditionals"),
              result.conditionals);
    EXPECT_EQ(metrics.running("session.feed_seconds").count(), 1u);
}

TEST(Tracing, SweepRunnerRecordsPoolMetrics)
{
    const Trace trace = smallTrace(11);
    SweepRunner runner(2);
    for (int bits = 6; bits < 12; ++bits) {
        runner.enqueue("gshare:" + std::to_string(bits) + ":4",
                       trace);
    }
    const std::vector<SimResult> results = runner.run();
    ASSERT_EQ(results.size(), 6u);

    const StatRegistry &metrics = runner.metrics();
    // metrics() is const; read through toJson() instead of the
    // mutating accessors.
    const JsonValue root = metrics.toJson();
    std::ostringstream out;
    root.write(out, 0);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"runs\""), std::string::npos);
    EXPECT_NE(json.find("\"cells\""), std::string::npos);
    EXPECT_NE(json.find("\"gang_occupancy\""), std::string::npos);
    EXPECT_NE(json.find("\"worker_busy_seconds\""),
              std::string::npos);
}

TEST(Tracing, SweepErrorsNameCellLabelAndWorker)
{
    const Trace trace = smallTrace(13);
    SweepRunner runner(2);
    runner.enqueue("gshare:8:6", trace);
    runner.enqueue("no-such-scheme:9", trace);
    try {
        runner.run();
        FAIL() << "expected FatalError";
    } catch (const FatalError &error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("sweep cell #1"), std::string::npos)
            << message;
        EXPECT_NE(message.find("no-such-scheme:9"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("on worker"), std::string::npos)
            << message;
        EXPECT_NE(message.find(trace.name()), std::string::npos)
            << message;
    }
}

TEST(Tracing, GangSweepIsByteIdenticalWithTracingEnabled)
{
    quiesce();
    const Trace trace = smallTrace(17, 8192);
    const std::vector<std::string> specs = {
        "gshare:8:6",  "gshare:9:6",  "gshare:10:6",
        "bimodal:8",   "gskewed:3:8:6", "egskew:8:6",
    };

    auto sweep = [&] {
        SweepRunner runner(2);
        for (const std::string &spec : specs) {
            runner.enqueue(spec, trace);
        }
        return runner.run();
    };

    const std::vector<SimResult> plain = sweep();
    trace::setEnabled(true);
    const std::vector<SimResult> traced = sweep();
    trace::setEnabled(false);

    ASSERT_EQ(plain.size(), traced.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].predictorName, traced[i].predictorName);
        EXPECT_EQ(plain[i].conditionals, traced[i].conditionals);
        EXPECT_EQ(plain[i].mispredicts, traced[i].mispredicts);
    }

    // The traced pass produced spans from the engine layers the
    // acceptance criteria name.
    std::set<std::string> categories;
    for (const trace::ThreadSnapshot &lane : trace::snapshot()) {
        for (const trace::TraceEvent &event : lane.events) {
            categories.insert(event.category);
        }
    }
    EXPECT_TRUE(categories.count("sweep"));
    EXPECT_TRUE(categories.count("gang"));
    EXPECT_TRUE(categories.count("session"));
    quiesce();
}

} // namespace
