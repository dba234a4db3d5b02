/**
 * @file
 * Unit tests for the telemetry probe layer: sink attachment, the
 * zero-overhead no-sink contract (identical predictions with and
 * without a sink), CountingProbe aggregation, and the driver's
 * probe attach/restore behaviour.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/skewed_predictor.hh"
#include "predictors/bimodal.hh"
#include "sim/driver.hh"
#include "sim/factory.hh"
#include "support/probe.hh"
#include "support/rng.hh"

namespace bpred
{
namespace
{

Trace
mixedTrace(std::size_t branches = 4000)
{
    Trace trace("probe");
    Rng rng(7);
    for (std::size_t i = 0; i < branches; ++i) {
        const Addr pc = 0x4000 + 4 * rng.uniformInt(256);
        if (rng.chance(0.2)) {
            trace.appendUnconditional(pc);
        } else {
            // Direction loosely correlated with the PC so every
            // predictor has something to learn and something to
            // miss.
            const bool bias = (pc >> 2) % 3 != 0;
            trace.appendConditional(pc,
                                    rng.chance(bias ? 0.85 : 0.3));
        }
    }
    return trace;
}

TEST(Probe, AttachReturnsPrevious)
{
    BimodalPredictor predictor(8);
    CountingProbe first;
    CountingProbe second;
    EXPECT_EQ(predictor.probe(), nullptr);
    EXPECT_EQ(predictor.attachProbe(&first), nullptr);
    EXPECT_EQ(predictor.probe(), &first);
    EXPECT_EQ(predictor.attachProbe(&second), &first);
    EXPECT_EQ(predictor.attachProbe(nullptr), &second);
    EXPECT_EQ(predictor.probe(), nullptr);
}

TEST(Probe, SinkDoesNotChangePredictions)
{
    // The zero-overhead contract's correctness half: attaching a
    // sink must not perturb any instrumented predictor's behaviour.
    // The probed run steps the split update() (with its event
    // publishing) and the bare run the block kernels, so equal
    // tallies and snapshot bytes pin each scheme's one update() to
    // its kernel.
    const Trace trace = mixedTrace();
    const std::vector<std::string> specs = {
        "bimodal:8",     "gshare:8:6",          "gselect:8:6",
        "agree:8:6:8",   "hybrid:8:6",          "gskewed:3:7:6",
        "egskew:7:6",    "gskewed:3:7:6:total", "gskewed:3:7:6:partial-lazy",
    };
    for (const std::string &spec : specs) {
        auto plain = makePredictor(spec);
        const SimResult bare = simulate(*plain, trace);

        auto probed = makePredictor(spec);
        CountingProbe probe;
        probed->attachProbe(&probe);
        const SimResult instrumented = simulate(*probed, trace);

        EXPECT_EQ(instrumented.mispredicts, bare.mispredicts)
            << spec;
        EXPECT_EQ(instrumented.conditionals, bare.conditionals)
            << spec;
        std::string bare_state;
        std::string probed_state;
        savePredictorState(*plain, bare_state);
        savePredictorState(*probed, probed_state);
        EXPECT_EQ(probed_state, bare_state) << spec;
    }
}

TEST(Probe, ResolvedCountsMatchSimResult)
{
    const Trace trace = mixedTrace();
    auto predictor = makePredictor("egskew:7:6");
    CountingProbe probe;
    predictor->attachProbe(&probe);
    const SimResult result = simulate(*predictor, trace);

    const RatioStat &resolved =
        probe.registry().ratio("resolved.mispredict");
    EXPECT_EQ(resolved.total(), result.conditionals);
    EXPECT_EQ(resolved.events(), result.mispredicts);
}

TEST(Probe, SingleTableSchemesResolveEveryConditional)
{
    // bimodal, gshare and gselect share one update(): each publishes
    // one resolved event per conditional and one transition per
    // value-changing counter write.
    const Trace trace = mixedTrace();
    for (const char *spec : {"bimodal:8", "gshare:8:6", "gselect:8:6"}) {
        auto predictor = makePredictor(spec);
        CountingProbe probe;
        predictor->attachProbe(&probe);
        const SimResult result = simulate(*predictor, trace);

        StatRegistry &stats = probe.registry();
        const RatioStat &resolved = stats.ratio("resolved.mispredict");
        EXPECT_EQ(resolved.total(), result.conditionals) << spec;
        EXPECT_EQ(resolved.events(), result.mispredicts) << spec;
        EXPECT_GT(stats.counter("bank0.writes"), 0u) << spec;
        EXPECT_EQ(stats.histogram("bank0.transitions").total(),
                  stats.counter("bank0.writes"))
            << spec;
    }
}

TEST(Probe, BankVotesCoverEveryBank)
{
    const Trace trace = mixedTrace();
    SkewedPredictor predictor(3, 7, 6, UpdatePolicy::Partial);
    CountingProbe probe;
    predictor.attachProbe(&probe);
    const SimResult result = simulate(predictor, trace);

    StatRegistry &stats = probe.registry();
    for (unsigned bank = 0; bank < predictor.numBanks(); ++bank) {
        const std::string prefix = "bank" + std::to_string(bank);
        // Every bank votes on every resolved branch.
        EXPECT_EQ(stats.ratio(prefix + ".disagree").total(),
                  result.conditionals);
        EXPECT_EQ(stats.ratio(prefix + ".correct").total(),
                  result.conditionals);
        // On a correlated trace each bank is right more often
        // than not.
        EXPECT_GT(stats.ratio(prefix + ".correct").ratio(), 0.5);
    }
}

TEST(Probe, PartialPolicySkipsProtectedBanks)
{
    const Trace trace = mixedTrace();

    SkewedPredictor partial(3, 7, 6, UpdatePolicy::Partial);
    CountingProbe partial_probe;
    partial.attachProbe(&partial_probe);
    simulate(partial, trace);

    u64 partial_skips = 0;
    u64 lazy_skips = 0;
    for (unsigned bank = 0; bank < partial.numBanks(); ++bank) {
        const std::string prefix = "bank" + std::to_string(bank);
        partial_skips +=
            partial_probe.registry().counter(prefix + ".skips.partial");
        lazy_skips +=
            partial_probe.registry().counter(prefix + ".skips.lazy");
    }
    EXPECT_GT(partial_skips, 0u);
    EXPECT_EQ(lazy_skips, 0u); // lazy skips only under PartialLazy

    SkewedPredictor total(3, 7, 6, UpdatePolicy::Total);
    CountingProbe total_probe;
    total.attachProbe(&total_probe);
    simulate(total, trace);
    for (unsigned bank = 0; bank < total.numBanks(); ++bank) {
        const std::string prefix = "bank" + std::to_string(bank);
        EXPECT_EQ(
            total_probe.registry().counter(prefix + ".skips.partial"),
            0u);
    }
}

TEST(Probe, LazyPolicyReportsSaturationSkips)
{
    const Trace trace = mixedTrace();
    SkewedPredictor lazy(3, 7, 6, UpdatePolicy::PartialLazy);
    CountingProbe probe;
    lazy.attachProbe(&probe);
    simulate(lazy, trace);

    u64 lazy_skips = 0;
    for (unsigned bank = 0; bank < lazy.numBanks(); ++bank) {
        lazy_skips += probe.registry().counter(
            "bank" + std::to_string(bank) + ".skips.lazy");
    }
    EXPECT_GT(lazy_skips, 0u);
}

TEST(Probe, CounterWritesMatchTransitionHistogram)
{
    const Trace trace = mixedTrace();
    SkewedPredictor predictor(3, 7, 6, UpdatePolicy::Partial);
    CountingProbe probe;
    predictor.attachProbe(&probe);
    simulate(predictor, trace);

    StatRegistry &stats = probe.registry();
    for (unsigned bank = 0; bank < predictor.numBanks(); ++bank) {
        const std::string prefix = "bank" + std::to_string(bank);
        const u64 writes = stats.counter(prefix + ".writes");
        const Histogram &transitions =
            stats.histogram(prefix + ".transitions");
        EXPECT_GT(writes, 0u);
        // Every value-changing write records exactly one
        // transition, and before != after for all of them.
        EXPECT_EQ(transitions.total(), writes);
        for (const auto &[key, count] : transitions.sorted()) {
            const u64 before = key / 256;
            const u64 after = key % 256;
            EXPECT_NE(before, after);
            EXPECT_GT(count, 0u);
        }
    }
}

TEST(Probe, HybridChooserEvents)
{
    const Trace trace = mixedTrace();
    auto predictor = makePredictor("hybrid:8:6");
    CountingProbe probe;
    predictor->attachProbe(&probe);
    const SimResult result = simulate(*predictor, trace);

    StatRegistry &stats = probe.registry();
    EXPECT_EQ(stats.ratio("chooser.first").total(),
              result.conditionals);
    EXPECT_EQ(stats.ratio("chooser.disagree").total(),
              result.conditionals);
    // When the chooser picks a component, its correctness matches
    // the overall result.
    EXPECT_EQ(stats.ratio("chooser.correct").total(),
              result.conditionals);
    EXPECT_EQ(stats.ratio("chooser.correct").events(),
              result.conditionals - result.mispredicts);
}

TEST(Probe, DriverAttachesAndRestores)
{
    const Trace trace = mixedTrace(500);
    BimodalPredictor predictor(8);
    CountingProbe outer;
    predictor.attachProbe(&outer);

    CountingProbe inner;
    SimOptions options;
    options.probe = &inner;
    const SimResult result =
        simulateWithOptions(predictor, trace, options);

    // During the run events went to the option's probe...
    EXPECT_EQ(inner.registry().ratio("resolved.mispredict").total(),
              result.conditionals);
    // ...the pre-attached sink saw nothing...
    EXPECT_TRUE(outer.registry().empty());
    // ...and it is restored afterwards.
    EXPECT_EQ(predictor.probe(), &outer);
}

TEST(Probe, RegistryResetKeepsCachedReferencesLive)
{
    // CountingProbe caches stat references; reset() must clear
    // values without invalidating them.
    const Trace trace = mixedTrace(500);
    BimodalPredictor predictor(8);
    CountingProbe probe;
    predictor.attachProbe(&probe);
    simulate(predictor, trace);
    const u64 first_total =
        probe.registry().ratio("resolved.mispredict").total();
    EXPECT_GT(first_total, 0u);

    probe.registry().reset();
    predictor.reset();
    simulate(predictor, trace);
    EXPECT_EQ(probe.registry().ratio("resolved.mispredict").total(),
              first_total);
}

} // namespace
} // namespace bpred
