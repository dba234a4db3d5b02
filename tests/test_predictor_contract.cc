/**
 * @file
 * Cross-predictor contract suite: every scheme the factory can
 * build must honour the Predictor interface contract. Runs the
 * same property battery over each spec (parameterized gtest).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/skewed_predictor.hh"
#include "predictors/bimodal.hh"
#include "predictors/gselect.hh"
#include "predictors/gshare.hh"
#include "predictors/hybrid.hh"
#include "predictors/predictor.hh"
#include "predictors/replay_scratch.hh"
#include "predictors/static_pred.hh"
#include "sim/driver.hh"
#include "sim/factory.hh"
#include "sim/gang.hh"
#include "sim/session.hh"
#include "support/probe.hh"
#include "support/rng.hh"
#include "support/serialize.hh"
#include "support/simd.hh"
#include "support/site_table.hh"
#include "trace/stream.hh"
#include "trace/trace.hh"
#include "workloads/presets.hh"

#include "session_reference.hh"

namespace bpred
{
namespace
{

/** Every scheme at a small geometry. */
const std::vector<const char *> allSpecs = {
    "static:taken",
    "static:nottaken",
    "bimodal:8",
    "bimodal:8:1",
    "gshare:8:6",
    "gshare:8:6:1",
    "gselect:8:4",
    "pag:8:6",
    "agree:8:6:8",
    "bimode:8:6:8",
    "yags:8:6:8",
    "hybrid:8:6",
    "gskewed:1:8:6",
    "gskewed:3:8:6",
    "gskewed:3:8:6:total",
    "gskewed:3:8:6:partial-lazy",
    "gskewed:5:8:6",
    "egskew:8:6",
    "gskewedsh:1:8:6",
    "gskewedsh:3:8:6",
    "gskewedsh:5:8:6:total",
    "egskewsh:8:6",
    // At 8 bank bits, e-gskew-sh under total update mispredicts
    // 31% of BetterThanCoinFlipOnLearnableStream's stream (its 4096
    // substreams thrash 3 x 256 entries; the textbook oracle agrees),
    // so total update is covered one bank bit up.
    "egskewsh:9:6:total",
    "pskew:8:6:1:8",
    "pskew:8:6:3:8",
    "pskew:8:6:5:8:total",
    "falru:4096:6",
    "unaliased:6",
};

Trace
contractTrace(u64 seed)
{
    Trace trace("contract");
    Rng rng(seed);
    for (int i = 0; i < 20000; ++i) {
        const Addr pc = 0x1000 + 4 * rng.uniformInt(300);
        if (rng.chance(0.2)) {
            trace.appendUnconditional(pc + 0x10000);
        } else {
            // Mix of biased and history-correlated outcomes.
            const bool outcome = (pc >> 2) % 3 == 0
                ? rng.chance(0.9)
                : (i & 2) != 0;
            trace.appendConditional(pc, outcome);
        }
    }
    return trace;
}

class PredictorContract
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PredictorContract, BuildsWithNonEmptyName)
{
    auto predictor = makePredictor(GetParam());
    ASSERT_NE(predictor, nullptr);
    EXPECT_FALSE(predictor->name().empty());
}

TEST_P(PredictorContract, SurvivesRandomStream)
{
    auto predictor = makePredictor(GetParam());
    const Trace trace = contractTrace(1);
    const SimResult result = simulate(*predictor, trace);
    EXPECT_GT(result.conditionals, 0u);
    EXPECT_LE(result.mispredicts, result.conditionals);
}

TEST_P(PredictorContract, DeterministicAcrossInstances)
{
    auto a = makePredictor(GetParam());
    auto b = makePredictor(GetParam());
    const Trace trace = contractTrace(2);
    const SimResult ra = simulate(*a, trace);
    const SimResult rb = simulate(*b, trace);
    EXPECT_EQ(ra.mispredicts, rb.mispredicts);
}

TEST_P(PredictorContract, ResetRestoresInitialBehaviour)
{
    auto predictor = makePredictor(GetParam());
    const Trace trace = contractTrace(3);
    const SimResult first = simulate(*predictor, trace);
    predictor->reset();
    const SimResult second = simulate(*predictor, trace);
    EXPECT_EQ(first.mispredicts, second.mispredicts)
        << "reset() did not restore the cold state";
}

TEST_P(PredictorContract, PredictIsSideEffectFreeOnTables)
{
    // Calling predict() twice in a row must return the same value
    // (prediction is a pure read of predictor state).
    auto predictor = makePredictor(GetParam());
    const Trace trace = contractTrace(4);
    u64 step = 0;
    for (const BranchRecord &record : trace) {
        if (!record.conditional) {
            predictor->notifyUnconditional(record.pc);
            continue;
        }
        const bool once = predictor->predict(record.pc);
        const bool twice = predictor->predict(record.pc);
        ASSERT_EQ(once, twice) << "at step " << step;
        predictor->update(record.pc, record.taken);
        if (++step > 2000) {
            break;
        }
    }
}

TEST_P(PredictorContract, BetterThanCoinFlipOnLearnableStream)
{
    // Every real predictor (not the static ones) must beat 50% on
    // a stream of strongly biased branches.
    const std::string spec = GetParam();
    if (spec.rfind("static", 0) == 0) {
        GTEST_SKIP() << "static predictors are direction-fixed";
    }
    auto predictor = makePredictor(spec);
    Trace trace("biased");
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        const Addr pc = 0x1000 + 4 * rng.uniformInt(64);
        const bool dominant = (pc >> 2) % 2 == 0;
        trace.appendConditional(pc, rng.chance(dominant ? 0.95
                                                        : 0.05));
    }
    const SimResult result = simulate(*predictor, trace);
    EXPECT_LT(result.mispredictRatio(), 0.30) << predictor->name();
}

TEST_P(PredictorContract, StorageBitsStable)
{
    auto predictor = makePredictor(GetParam());
    const u64 before = predictor->storageBits();
    const Trace trace = contractTrace(6);
    simulate(*predictor, trace);
    // Only the unaliased predictor is allowed to grow.
    if (std::string(GetParam()).rfind("unaliased", 0) != 0) {
        EXPECT_EQ(predictor->storageBits(), before);
    }
}

TEST_P(PredictorContract, WarmupNeverHurtsDeterminism)
{
    auto predictor = makePredictor(GetParam());
    const Trace trace = contractTrace(7);
    SimOptions options;
    options.warmupBranches = 5000;
    const SimResult warm =
        simulateWithOptions(*predictor, trace, options);
    EXPECT_LE(warm.conditionals,
              computeTraceStats(trace).dynamicConditional);
}

/**
 * Replay @p trace through @p predictor's split predict()/update()
 * loop — the reference semantics replayBlock() must reproduce.
 */
ReplayCounters
replayScalar(Predictor &predictor, const Trace &trace)
{
    ReplayCounters counters;
    for (const BranchRecord &record : trace) {
        if (!record.conditional) {
            predictor.notifyUnconditional(record.pc);
            continue;
        }
        const bool prediction = predictor.predict(record.pc);
        predictor.update(record.pc, record.taken);
        ++counters.conditionals;
        counters.mispredicts += u64(prediction != record.taken);
    }
    return counters;
}

/**
 * Replay @p trace through replayBlock() in deliberately uneven
 * chunks (1, 3, 7, 15, ... records) so block boundaries land at
 * arbitrary offsets, including mid-"natural" block.
 */
ReplayCounters
replayBlocks(Predictor &predictor, const Trace &trace)
{
    ReplayCounters counters;
    const BranchRecord *records = trace.records().data();
    std::size_t at = 0;
    std::size_t chunk = 1;
    while (at < trace.size()) {
        const std::size_t n = std::min(chunk, trace.size() - at);
        predictor.replayBlock(records + at, n, counters);
        at += n;
        chunk = chunk * 2 + 1;
    }
    return counters;
}

TEST(ReplayBlockContract, BlockMatchesScalarForEveryScheme)
{
    // Every scheme the factory knows: same tallies from the block
    // kernel as from the split loop, and — checked by a second split
    // pass over fresh records — the same trained state afterwards.
    const Trace trace = contractTrace(10);
    const Trace check = contractTrace(11);
    for (const SchemeInfo &scheme : listSchemes()) {
        SCOPED_TRACE(scheme.example);
        auto scalar = makePredictor(scheme.example);
        auto block = makePredictor(scheme.example);
        const ReplayCounters want = replayScalar(*scalar, trace);
        const ReplayCounters got = replayBlocks(*block, trace);
        EXPECT_EQ(want.conditionals, got.conditionals);
        EXPECT_EQ(want.mispredicts, got.mispredicts);

        u64 step = 0;
        for (const BranchRecord &record : check) {
            if (!record.conditional) {
                scalar->notifyUnconditional(record.pc);
                block->notifyUnconditional(record.pc);
                continue;
            }
            const bool expected = scalar->predict(record.pc);
            scalar->update(record.pc, record.taken);
            const bool actual = block->predict(record.pc);
            block->update(record.pc, record.taken);
            ASSERT_EQ(expected, actual)
                << "trained state diverged by step " << step;
            if (++step > 4000) {
                break;
            }
        }
    }
}

TEST(ReplayBlockContract, ProbedBlockMatchesScalarEventStream)
{
    // With a telemetry sink attached, replayBlock() must delegate
    // to the scalar loop: identical tallies AND an identical event
    // stream, for every scheme.
    const Trace trace = contractTrace(12);
    for (const SchemeInfo &scheme : listSchemes()) {
        SCOPED_TRACE(scheme.example);
        auto scalar = makePredictor(scheme.example);
        auto block = makePredictor(scheme.example);
        CountingProbe scalarProbe;
        CountingProbe blockProbe;
        scalar->attachProbe(&scalarProbe);
        block->attachProbe(&blockProbe);
        const ReplayCounters want = replayScalar(*scalar, trace);
        const ReplayCounters got = replayBlocks(*block, trace);
        EXPECT_EQ(want.conditionals, got.conditionals);
        EXPECT_EQ(want.mispredicts, got.mispredicts);
        EXPECT_EQ(scalarProbe.registry().toJson().dump(2),
                  blockProbe.registry().toJson().dump(2));
    }
}

/** Tallies, windows and top sites of @p got equal @p want's. */
void
expectSameSession(const SimResult &want, const SimResult &got)
{
    EXPECT_EQ(want.conditionals, got.conditionals);
    EXPECT_EQ(want.mispredicts, got.mispredicts);
    ASSERT_EQ(want.windows.size(), got.windows.size());
    for (std::size_t i = 0; i < want.windows.size(); ++i) {
        EXPECT_EQ(want.windows[i].branches, got.windows[i].branches);
        EXPECT_EQ(want.windows[i].mispredicts,
                  got.windows[i].mispredicts);
    }
    ASSERT_EQ(want.topSites.size(), got.topSites.size());
    for (std::size_t i = 0; i < want.topSites.size(); ++i) {
        EXPECT_EQ(want.topSites[i].pc, got.topSites[i].pc);
        EXPECT_EQ(want.topSites[i].mispredicts,
                  got.topSites[i].mispredicts);
    }
}

TEST(ReplayBlockContract, SessionBlockPathMatchesReferenceAtBoundaries)
{
    // The session's one feed path must split correctly at warmup,
    // flush and window boundaries that land mid-block, and attribute
    // top sites from the kernels' mispredict mask: identical
    // tallies, windows and top-K sites to the split reference loop,
    // with bookkeeping intervals chosen to straddle block boundaries.
    // The second option set has no boundaries at all, so the
    // one-chunk feed is cut only by the session's attribution cap.
    // Each run is repeated with a site census attached, whose top
    // sites are ranked from the census table instead.
    const Trace trace = contractTrace(13);
    SimOptions boundaries;
    boundaries.warmupBranches = 1234;
    boundaries.flushInterval = 3456;
    boundaries.windowSize = 789;
    boundaries.topSites = 16;
    SimOptions unbounded;
    unbounded.topSites = 16;
    for (const SimOptions &options : {boundaries, unbounded}) {
        for (const SchemeInfo &scheme : listSchemes()) {
            SCOPED_TRACE(scheme.example);
            auto blockSide = makePredictor(scheme.example);
            auto referenceSide = makePredictor(scheme.example);
            const SimResult got =
                simulateWithOptions(*blockSide, trace, options);
            const SimResult want =
                referenceSession(*referenceSide, trace, options);
            EXPECT_FALSE(want.topSites.empty());
            expectSameSession(want, got);

            SiteTable census;
            SimOptions tallied = options;
            tallied.siteTally = &census;
            auto censusSide = makePredictor(scheme.example);
            expectSameSession(
                want, simulateWithOptions(*censusSide, trace, tallied));
        }
    }
}

TEST(ReplayBlockContract, ProbedSessionFillsMispredictMask)
{
    // With a probe attached, replayBlock() delegates to the scalar
    // default — which must fill the mispredict mask too, so top-K
    // attribution and the event stream both match the reference.
    const Trace trace = contractTrace(16);
    SimOptions options;
    options.warmupBranches = 1234;
    options.flushInterval = 3456;
    options.windowSize = 789;
    options.topSites = 16;
    for (const SchemeInfo &scheme : listSchemes()) {
        SCOPED_TRACE(scheme.example);
        auto blockSide = makePredictor(scheme.example);
        auto referenceSide = makePredictor(scheme.example);
        CountingProbe blockProbe;
        CountingProbe referenceProbe;
        SimOptions probed = options;
        probed.probe = &blockProbe;
        referenceSide->attachProbe(&referenceProbe);
        const SimResult got =
            simulateWithOptions(*blockSide, trace, probed);
        const SimResult want =
            referenceSession(*referenceSide, trace, options);
        expectSameSession(want, got);
        EXPECT_EQ(referenceProbe.registry().toJson().dump(2),
                  blockProbe.registry().toJson().dump(2));
    }
}

/**
 * Replay @p trace through replayBlock() in fixed @p block_records
 * chunks, passing @p scratch down (null = the scalar block kernel).
 */
ReplayCounters
replayBlocksFixed(Predictor &predictor, const Trace &trace,
                  std::size_t block_records, ReplayScratch *scratch)
{
    ReplayCounters counters;
    const BranchRecord *records = trace.records().data();
    for (std::size_t at = 0; at < trace.size(); at += block_records) {
        const std::size_t n =
            std::min(block_records, trace.size() - at);
        predictor.replayBlock(records + at, n, counters, scratch);
    }
    return counters;
}

/** saveState() bytes, or "" for schemes without snapshot support. */
std::string
snapshotBytes(const Predictor &predictor)
{
    if (!predictor.supportsSnapshot()) {
        return {};
    }
    std::string bytes;
    ByteWriter out(bytes);
    predictor.saveState(out);
    return bytes;
}

TEST(ReplayBlockContract, SimdMatchesScalarAcrossBlockSizesAndModes)
{
    // The phase-split path must be byte-identical to the scalar
    // block kernel for every scheme, at every block size (including
    // size 1, where the vector fill degenerates to its scalar tail)
    // and under both dispatch modes — Scalar exercises the
    // bit-identical fallback kernels, Avx2 the vector fills where
    // the build and host support them. Tallies AND trained state
    // (snapshot bytes) must match.
    const Trace trace = contractTrace(14);
    const std::size_t blockSizes[] = {1, 7, 64, 8192};
    const SimdMode modes[] = {SimdMode::Scalar, SimdMode::Avx2};
    for (const SchemeInfo &scheme : listSchemes()) {
        for (const std::size_t block : blockSizes) {
            for (const SimdMode mode : modes) {
                SCOPED_TRACE(std::string(scheme.example) + " block=" +
                             std::to_string(block) + " mode=" +
                             std::string(simdModeName(mode)));
                auto reference = makePredictor(scheme.example);
                auto simd = makePredictor(scheme.example);
                ReplayScratch scratch;
                scratch.mode = mode;
                const ReplayCounters want = replayBlocksFixed(
                    *reference, trace, block, nullptr);
                const ReplayCounters got =
                    replayBlocksFixed(*simd, trace, block, &scratch);
                EXPECT_EQ(want.conditionals, got.conditionals);
                EXPECT_EQ(want.mispredicts, got.mispredicts);
                EXPECT_EQ(snapshotBytes(*reference),
                          snapshotBytes(*simd));
            }
        }
    }

    // Factory specs fix the counter width at 2 bits, so the other
    // skewed geometries are built directly: transition-table widths
    // (3 banks x 1..3 bits, 5 x 2, 1 x 4) and groups too wide for a
    // table, which take the block kernel (3 x 4, 5 x 3), each with
    // the global history or (bht > 0) pskew's per-address one. The
    // reference is the split update() path, which shares the block
    // step's train helper but none of the phase split's fills,
    // tables or tiles; tests/paper_reference.hh pins all of them to
    // the paper. A 13-bit group crosses simdWantsCounterPrefetch, so
    // the prefetching resolve runs too.
    struct Geometry
    {
        unsigned banks;
        unsigned counterBits;
        UpdatePolicy policy;
        bool enhanced;
        unsigned indexBits;
        unsigned bht;
    };
    const Geometry geometries[] = {
        {3, 1, UpdatePolicy::Partial, false, 8, 0},
        {3, 2, UpdatePolicy::Partial, false, 8, 0},
        {3, 3, UpdatePolicy::Partial, false, 8, 0},
        {3, 3, UpdatePolicy::Total, false, 8, 0},
        {3, 3, UpdatePolicy::PartialLazy, false, 13, 0},
        {3, 4, UpdatePolicy::Partial, false, 8, 0},
        {5, 2, UpdatePolicy::PartialLazy, false, 8, 0},
        {5, 3, UpdatePolicy::Partial, false, 8, 0},
        {1, 4, UpdatePolicy::Partial, false, 8, 0},
        {3, 2, UpdatePolicy::Partial, true, 8, 0},
        {3, 3, UpdatePolicy::Partial, true, 8, 0},
        {3, 1, UpdatePolicy::Partial, false, 8, 6},
        {3, 2, UpdatePolicy::Total, false, 8, 6},
        {3, 3, UpdatePolicy::PartialLazy, false, 13, 8},
        {3, 4, UpdatePolicy::Partial, false, 8, 6},
        {5, 2, UpdatePolicy::Partial, false, 8, 4},
        {1, 2, UpdatePolicy::Partial, false, 8, 6},
    };
    for (const Geometry &geometry : geometries) {
        SkewedPredictor::Config config;
        config.numBanks = geometry.banks;
        config.bankIndexBits = geometry.indexBits;
        config.historyBits = 6;
        config.counterBits = geometry.counterBits;
        config.updatePolicy = geometry.policy;
        if (geometry.enhanced) {
            config.indexing = BankIndexing::Enhanced;
        }
        config.bhtIndexBits = geometry.bht;
        SkewedPredictor reference(config);
        const ReplayCounters want = replayScalar(reference, trace);
        for (const std::size_t block : blockSizes) {
            for (const SimdMode mode : modes) {
                SkewedPredictor replayed(config);
                SCOPED_TRACE(replayed.name() + " counter_bits=" +
                             std::to_string(geometry.counterBits) +
                             " block=" + std::to_string(block) +
                             " mode=" +
                             std::string(simdModeName(mode)));
                ReplayScratch scratch;
                scratch.mode = mode;
                const ReplayCounters got =
                    replayBlocksFixed(replayed, trace, block, &scratch);
                EXPECT_EQ(want.conditionals, got.conditionals);
                EXPECT_EQ(want.mispredicts, got.mispredicts);
                EXPECT_EQ(reference.bankWrites(), replayed.bankWrites());
                EXPECT_EQ(snapshotBytes(reference),
                          snapshotBytes(replayed));
            }
        }
    }
}

TEST(ReplayBlockContract, MispredictMaskMatchesSplitReference)
{
    // Every replayBlock() implementation — block kernel, phase-split
    // and the split default — must write one mask byte per conditional
    // of the call, in trace order, equal to the split reference's
    // per-branch outcome; and must leave the mask alone unless
    // asked.
    const Trace trace = contractTrace(17);
    const std::size_t blockSizes[] = {1, 7, 64, 8192};
    const SimdMode modes[] = {SimdMode::Scalar, SimdMode::Avx2};
    std::vector<std::string> specs;
    for (const SchemeInfo &scheme : listSchemes()) {
        specs.push_back(scheme.example);
    }
    // A hybrid whose component tables cross
    // simdWantsCounterPrefetch(): their prefetching resolves run
    // inside the hybrid's own scratch.
    specs.push_back("hybrid:15:12");
    for (const std::string &spec : specs) {
        std::vector<u8> want;
        auto reference = makePredictor(spec);
        for (const BranchRecord &record : trace) {
            if (!record.conditional) {
                reference->notifyUnconditional(record.pc);
                continue;
            }
            const bool prediction = reference->predict(record.pc);
            reference->update(record.pc, record.taken);
            want.push_back(u8(prediction != record.taken));
        }
        for (const std::size_t block : blockSizes) {
            for (const SimdMode mode : modes) {
                SCOPED_TRACE(spec + " block=" + std::to_string(block) +
                             " mode=" + std::string(simdModeName(mode)));
                auto predictor = makePredictor(spec);
                ReplayScratch scratch;
                scratch.mode = mode;
                // A second predictor replays the same blocks without
                // asking, into its own poisoned mask.
                auto unmasked = makePredictor(spec);
                ReplayScratch untouched;
                untouched.mode = mode;
                untouched.ensureMispredicts(block);
                std::fill(untouched.mispredicted.begin(),
                          untouched.mispredicted.end(), u8(0xa5));
                std::vector<u8> got;
                const BranchRecord *records = trace.records().data();
                for (std::size_t at = 0; at < trace.size();
                     at += block) {
                    const std::size_t n =
                        std::min(block, trace.size() - at);
                    ReplayCounters counters;
                    scratch.recordMispredicts = true;
                    scratch.ensureMispredicts(n);
                    predictor->replayBlock(records + at, n, counters,
                                           &scratch);
                    got.insert(got.end(), scratch.mispredicted.begin(),
                               scratch.mispredicted.begin() +
                                   std::ptrdiff_t(
                                       counters.conditionals));
                    ReplayCounters ignored;
                    unmasked->replayBlock(records + at, n, ignored,
                                          &untouched);
                }
                EXPECT_TRUE(std::all_of(
                    untouched.mispredicted.begin(),
                    untouched.mispredicted.end(),
                    [](u8 byte) { return byte == 0xa5; }));
                ASSERT_EQ(want, got);
            }
        }
    }
}

/** Per-conditional mispredict bytes of a split predict()/update() walk. */
std::vector<u8>
splitMispredicts(Predictor &predictor, const Trace &trace)
{
    std::vector<u8> wrong;
    for (const BranchRecord &record : trace) {
        if (!record.conditional) {
            predictor.notifyUnconditional(record.pc);
            continue;
        }
        const bool prediction = predictor.predict(record.pc);
        predictor.update(record.pc, record.taken);
        wrong.push_back(u8(prediction != record.taken));
    }
    return wrong;
}

TEST(ReplayBlockContract, HybridOverComponentPairsMatchesSplit)
{
    // The hybrid replays each component through the component's own
    // replayBlock() and then walks the chooser over their mispredict
    // masks. Pin that to split predict()/update() over component
    // pairs the factory never builds: a static component beside a
    // phase-split skewed group, gselect beside e-gskew, and a nested
    // hybrid whose component owns a scratch of its own. Uneven
    // blocks put boundaries everywhere; each pair runs under both
    // dispatch modes and with no scratch at all.
    struct Pair
    {
        std::function<std::unique_ptr<Predictor>()> first;
        std::function<std::unique_ptr<Predictor>()> second;
        unsigned chooserBits;
    };
    const auto staticNotTaken = [] {
        return std::make_unique<StaticPredictor>(false);
    };
    const auto gskewed = [] {
        return std::make_unique<SkewedPredictor>(3, 8, 6);
    };
    const auto gselect = [] {
        return std::make_unique<GSelectPredictor>(8, 4);
    };
    const auto egskew = [] {
        return std::make_unique<SkewedPredictor>(makeEnhancedConfig(8, 6));
    };
    const auto bimodal = [] {
        return std::make_unique<BimodalPredictor>(8);
    };
    const auto nested = [] {
        return std::make_unique<HybridPredictor>(
            std::make_unique<GSharePredictor>(8, 6),
            std::make_unique<BimodalPredictor>(8), 7);
    };
    const Pair pairs[] = {
        {staticNotTaken, gskewed, 8},
        {gselect, egskew, 8},
        {bimodal, nested, 7},
    };
    const auto build = [](const Pair &pair) {
        return std::make_unique<HybridPredictor>(pair.first(),
                                                 pair.second(),
                                                 pair.chooserBits);
    };

    const Trace trace = contractTrace(18);
    const std::vector<SimdMode> modes = {SimdMode::Scalar,
                                         SimdMode::Avx2};
    for (const Pair &pair : pairs) {
        auto reference = build(pair);
        const std::vector<u8> want = splitMispredicts(*reference, trace);
        const std::string want_state = snapshotBytes(*reference);
        ASSERT_FALSE(want_state.empty());
        // Standalone copies of the components train exactly as the
        // hybrid's do: the mask must be the hybrid's, not theirs.
        auto first = pair.first();
        auto second = pair.second();
        EXPECT_NE(want, splitMispredicts(*first, trace));
        EXPECT_NE(want, splitMispredicts(*second, trace));
        const u64 want_mispredicts =
            u64(std::count(want.begin(), want.end(), u8(1)));

        // Null scratch: tallies and state only.
        {
            auto hybrid = build(pair);
            SCOPED_TRACE(hybrid->name() + " scratch=null");
            const ReplayCounters got = replayBlocks(*hybrid, trace);
            EXPECT_EQ(got.conditionals, u64(want.size()));
            EXPECT_EQ(got.mispredicts, want_mispredicts);
            EXPECT_EQ(snapshotBytes(*hybrid), want_state);
        }
        for (const SimdMode mode : modes) {
            auto hybrid = build(pair);
            SCOPED_TRACE(hybrid->name() + " mode=" +
                         std::string(simdModeName(mode)));
            ReplayScratch scratch;
            scratch.mode = mode;
            scratch.recordMispredicts = true;
            ReplayCounters counters;
            std::vector<u8> got;
            const BranchRecord *records = trace.records().data();
            std::size_t at = 0;
            std::size_t chunk = 1;
            while (at < trace.size()) {
                const std::size_t n =
                    std::min(chunk, trace.size() - at);
                const u64 before = counters.conditionals;
                scratch.ensureMispredicts(n);
                hybrid->replayBlock(records + at, n, counters,
                                    &scratch);
                got.insert(got.end(), scratch.mispredicted.begin(),
                           scratch.mispredicted.begin() +
                               std::ptrdiff_t(counters.conditionals -
                                              before));
                at += n;
                chunk = chunk * 2 + 1;
            }
            EXPECT_EQ(counters.conditionals, u64(want.size()));
            EXPECT_EQ(counters.mispredicts, want_mispredicts);
            EXPECT_EQ(got, want);
            EXPECT_EQ(snapshotBytes(*hybrid), want_state);
        }
    }
}

TEST(ReplayBlockContract, SessionSimdPathMatchesScalarAtBoundaries)
{
    // Session-level dispatch: SimOptions::simd = Avx2 against the
    // forced-scalar engine, with warmup / flush / window intervals
    // chosen to straddle block boundaries so the phase-split kernel
    // sees partial blocks at every bookkeeping edge, and top sites
    // on so the vector resolve loops' mispredict mask is compared.
    const Trace trace = contractTrace(15);
    SimOptions simdOptions;
    simdOptions.warmupBranches = 1234;
    simdOptions.flushInterval = 3456;
    simdOptions.windowSize = 789;
    simdOptions.topSites = 16;
    simdOptions.simd = SimdMode::Avx2;
    SimOptions scalarOptions = simdOptions;
    scalarOptions.simd = SimdMode::Scalar;
    for (const SchemeInfo &scheme : listSchemes()) {
        SCOPED_TRACE(scheme.example);
        auto simdSide = makePredictor(scheme.example);
        auto scalarSide = makePredictor(scheme.example);
        const SimResult a =
            simulateWithOptions(*simdSide, trace, simdOptions);
        const SimResult b =
            simulateWithOptions(*scalarSide, trace, scalarOptions);
        expectSameSession(b, a);
    }
}

TEST(ReplayBlockContract, TopSitesExactWhenSitesOutnumberK)
{
    // An IBS trace has thousands of mispredicting sites against K
    // slots, so a bounded counter would have to evict and estimate.
    // Top sites must still equal the split loop's exact ranking
    // through every session driver: solo, a gang member beside
    // another predictor, and simulateSource in odd-sized chunks,
    // under both dispatch modes.
    const Trace trace = makeIbsTrace("real_gcc", 0.01);
    const char *const specs[] = {"gshare:10:8", "egskew:9:8"};
    const std::size_t capacities[] = {4, 16};
    const SimdMode modes[] = {SimdMode::Scalar, SimdMode::Avx2};
    SimOptions options;
    options.warmupBranches = 1234;
    options.flushInterval = 34567;
    for (const char *spec : specs) {
        // Every mispredicting site, ranked; each K keeps its head.
        SimOptions all = options;
        all.topSites = ~std::size_t(0);
        auto referenceSide = makePredictor(spec);
        const SimResult every =
            referenceSession(*referenceSide, trace, all);
        ASSERT_GT(every.topSites.size(), 50 * capacities[1]);
        for (const std::size_t capacity : capacities) {
            options.topSites = capacity;
            SimResult want = every;
            want.topSites.resize(capacity);

            for (const SimdMode mode : modes) {
                SCOPED_TRACE(std::string(spec) + " K=" +
                             std::to_string(capacity) + " mode=" +
                             std::string(simdModeName(mode)));
                SimOptions run = options;
                run.simd = mode;

                auto solo = makePredictor(spec);
                expectSameSession(
                    want, simulateWithOptions(*solo, trace, run));

                auto member = makePredictor(spec);
                auto neighbour = makePredictor("bimodal:10");
                GangSession gang(4096);
                gang.add(*neighbour, SimOptions(), trace.name());
                gang.add(*member, run, trace.name());
                gang.feed(trace);
                const std::vector<SimResult> members = gang.finish();
                ASSERT_EQ(members.size(), 2u);
                EXPECT_TRUE(members[0].topSites.empty());
                expectSameSession(want, members[1]);

                auto streamed = makePredictor(spec);
                MemoryTraceSource source(trace);
                expectSameSession(
                    want, simulateSource(*streamed, source, run, 5000));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, PredictorContract, ::testing::ValuesIn(allSpecs),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == ':' || c == '-') {
                c = '_';
            }
        }
        return name;
    });

} // namespace
} // namespace bpred
