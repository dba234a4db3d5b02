/**
 * @file
 * Unit tests for the simulation driver.
 */

#include <gtest/gtest.h>

#include "predictors/bimodal.hh"
#include "support/logging.hh"
#include "predictors/static_pred.hh"
#include "sim/driver.hh"

namespace bpred
{
namespace
{

Trace
simpleTrace()
{
    Trace trace("drv");
    for (int i = 0; i < 100; ++i) {
        trace.appendConditional(0x100, true);
        trace.appendConditional(0x104, false);
        trace.appendUnconditional(0x108);
    }
    return trace;
}

TEST(Driver, CountsConditionalsOnly)
{
    StaticPredictor predictor(true);
    const SimResult result = simulate(predictor, simpleTrace());
    EXPECT_EQ(result.conditionals, 200u);
    EXPECT_EQ(result.mispredicts, 100u); // the not-taken branch
    EXPECT_DOUBLE_EQ(result.mispredictRatio(), 0.5);
    EXPECT_DOUBLE_EQ(result.mispredictPercent(), 50.0);
}

TEST(Driver, RecordsNames)
{
    StaticPredictor predictor(true);
    const SimResult result = simulate(predictor, simpleTrace());
    EXPECT_EQ(result.predictorName, "always-taken");
    EXPECT_EQ(result.traceName, "drv");
    EXPECT_EQ(result.storageBits, 0u);
}

TEST(Driver, BimodalConvergesOnBiasedTrace)
{
    BimodalPredictor predictor(8);
    const SimResult result = simulate(predictor, simpleTrace());
    // Only cold-start mispredictions: both branches are perfectly
    // biased.
    EXPECT_LE(result.mispredicts, 4u);
}

SimResult
runWithWarmup(Predictor &predictor, const Trace &trace, u64 warmup)
{
    SimOptions options;
    options.warmupBranches = warmup;
    return simulateWithOptions(predictor, trace, options);
}

TEST(Driver, WarmupExcludesEarlyBranches)
{
    BimodalPredictor predictor(8);
    const SimResult result =
        runWithWarmup(predictor, simpleTrace(), 10);
    EXPECT_EQ(result.conditionals, 190u);
    EXPECT_EQ(result.mispredicts, 0u);
}

TEST(Driver, WarmupLargerThanTraceScoresNothing)
{
    BimodalPredictor predictor(8);
    const SimResult result =
        runWithWarmup(predictor, simpleTrace(), 100000);
    EXPECT_EQ(result.conditionals, 0u);
    EXPECT_DOUBLE_EQ(result.mispredictRatio(), 0.0);
}

TEST(Driver, FlushResetsStatePeriodically)
{
    // A perfectly biased branch: without flushes only the cold
    // start mispredicts; with flushes every 50 branches the cold
    // start recurs once per interval (counters reset to
    // strongly-not-taken, the branch is always taken: 2 misses to
    // re-saturate past the threshold).
    Trace trace("flush");
    for (int i = 0; i < 1000; ++i) {
        trace.appendConditional(0x100, true);
    }
    BimodalPredictor cold(8);
    const SimResult no_flush = simulate(cold, trace);
    EXPECT_EQ(no_flush.mispredicts, 2u);

    BimodalPredictor flushed(8);
    SimOptions options;
    options.flushInterval = 50;
    const SimResult with_flush =
        simulateWithOptions(flushed, trace, options);
    EXPECT_EQ(with_flush.conditionals, 1000u);
    EXPECT_EQ(with_flush.mispredicts, 2u * (1000 / 50));
}

TEST(Driver, ZeroFlushIntervalDisablesFlushing)
{
    const Trace trace = simpleTrace();

    BimodalPredictor plain(8);
    const SimResult no_options = simulate(plain, trace);

    BimodalPredictor zeroed(8);
    SimOptions options;
    options.flushInterval = 0;
    const SimResult zero_interval =
        simulateWithOptions(zeroed, trace, options);
    EXPECT_EQ(no_options.conditionals, zero_interval.conditionals);
    EXPECT_EQ(no_options.mispredicts, zero_interval.mispredicts);
}

TEST(Driver, EmptyTrace)
{
    BimodalPredictor predictor(8);
    const SimResult result = simulate(predictor, Trace("empty"));
    EXPECT_EQ(result.conditionals, 0u);
    EXPECT_DOUBLE_EQ(result.mispredictRatio(), 0.0);
}

TEST(Driver, WindowedSeriesSumsToTotals)
{
    BimodalPredictor predictor(8);
    SimOptions options;
    options.windowSize = 64;
    const SimResult result =
        simulateWithOptions(predictor, simpleTrace(), options);

    EXPECT_EQ(result.windowSize, 64u);
    // 200 conditionals at 64 per window: 3 full + 1 trailing
    // partial window of 8.
    ASSERT_EQ(result.windows.size(), 4u);
    u64 branches = 0;
    u64 mispredicts = 0;
    for (const WindowSample &window : result.windows) {
        branches += window.branches;
        mispredicts += window.mispredicts;
    }
    EXPECT_EQ(branches, result.conditionals);
    EXPECT_EQ(mispredicts, result.mispredicts);
    EXPECT_EQ(result.windows[0].branches, 64u);
    EXPECT_EQ(result.windows[3].branches, 8u);
}

TEST(Driver, WindowRatioDecaysAsPredictorWarms)
{
    // All cold-start mispredictions land in the first window.
    BimodalPredictor predictor(8);
    SimOptions options;
    options.windowSize = 50;
    const SimResult result =
        simulateWithOptions(predictor, simpleTrace(), options);
    ASSERT_GE(result.windows.size(), 2u);
    EXPECT_GT(result.windows[0].mispredicts, 0u);
    EXPECT_EQ(result.windows.back().mispredicts, 0u);
}

TEST(Driver, TopSitesAttributeMispredictions)
{
    // 0x104 is always-not-taken: under an always-taken static
    // predictor it is the only mispredicting site.
    StaticPredictor predictor(true);
    SimOptions options;
    options.topSites = 4;
    const SimResult result =
        simulateWithOptions(predictor, simpleTrace(), options);

    ASSERT_FALSE(result.topSites.empty());
    EXPECT_EQ(result.topSites[0].pc, 0x104u);
    EXPECT_EQ(result.topSites[0].mispredicts, result.mispredicts);
    // The always-correct site never enters the ranking.
    EXPECT_EQ(result.topSites.size(), 1u);
}

TEST(Driver, DefaultOptionsRecordNoTelemetry)
{
    BimodalPredictor predictor(8);
    const SimResult result = simulate(predictor, simpleTrace());
    EXPECT_EQ(result.windowSize, 0u);
    EXPECT_TRUE(result.windows.empty());
    EXPECT_TRUE(result.topSites.empty());
}

TEST(Driver, ResultToJson)
{
    StaticPredictor predictor(true);
    SimOptions options;
    options.windowSize = 100;
    options.topSites = 2;
    const SimResult result =
        simulateWithOptions(predictor, simpleTrace(), options);

    const JsonValue json = result.toJson();
    ASSERT_TRUE(json.isObject());
    EXPECT_EQ(json.find("predictor")->dump(), "\"always-taken\"");
    EXPECT_EQ(json.find("trace")->dump(), "\"drv\"");
    EXPECT_EQ(json.find("conditionals")->dump(), "200");
    EXPECT_EQ(json.find("mispredicts")->dump(), "100");
    EXPECT_EQ(json.find("mispredict_ratio")->dump(), "0.5");
    EXPECT_EQ(json.find("window_size")->dump(), "100");

    const JsonValue *windows = json.find("windows");
    ASSERT_NE(windows, nullptr);
    EXPECT_EQ(windows->size(), 2u);
    const JsonValue *first = windows->at(0);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->find("branches")->dump(), "100");
    EXPECT_EQ(first->find("mispredicts")->dump(), "50");

    const JsonValue *sites = json.find("top_sites");
    ASSERT_NE(sites, nullptr);
    ASSERT_EQ(sites->size(), 1u);
    EXPECT_EQ(sites->at(0)->find("pc")->dump(), "\"0x104\"");
    EXPECT_EQ(sites->at(0)->find("mispredicts")->dump(), "100");
}

TEST(Driver, ResultToJsonOmitsUnrequestedTelemetry)
{
    BimodalPredictor predictor(8);
    const JsonValue json =
        simulate(predictor, simpleTrace()).toJson();
    EXPECT_EQ(json.find("windows"), nullptr);
    EXPECT_EQ(json.find("top_sites"), nullptr);
    EXPECT_EQ(json.find("window_size"), nullptr);
}

TEST(Driver, StateCarriesAcrossCallsWithoutReset)
{
    // Documented contract: simulate() does not reset the predictor.
    BimodalPredictor predictor(8);
    simulate(predictor, simpleTrace());
    const SimResult second = simulate(predictor, simpleTrace());
    EXPECT_EQ(second.mispredicts, 0u); // fully warm
}

} // namespace
} // namespace bpred
