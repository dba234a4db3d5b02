/**
 * @file
 * Tests for streaming simulation sessions: feed()-in-chunks must be
 * indistinguishable from the batch loop for every scheme and every
 * telemetry knob, trace sources must agree with their in-memory
 * counterparts, and predictor snapshots must round-trip exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "predictors/block_kernel_simd.hh"
#include "predictors/gshare.hh"
#include "serve/tenant_cache.hh"
#include "sim/driver.hh"
#include "sim/factory.hh"
#include "sim/gang.hh"
#include "sim/session.hh"
#include "support/logging.hh"
#include "support/probe.hh"
#include "support/rng.hh"
#include "trace/adapters.hh"
#include "trace/mmap_source.hh"
#include "trace/stream.hh"
#include "trace/trace_io.hh"
#include "workloads/process_mix.hh"
#include "workloads/stream_source.hh"

namespace bpred
{
namespace
{

Trace
sessionTrace(u64 seed, int records = 20000)
{
    Trace trace("session");
    Rng rng(seed);
    for (int i = 0; i < records; ++i) {
        const Addr pc = 0x2000 + 4 * rng.uniformInt(400);
        if (rng.chance(0.2)) {
            trace.appendUnconditional(pc + 0x20000);
        } else {
            const bool outcome = (pc >> 2) % 3 == 0
                ? rng.chance(0.85)
                : (i & 2) != 0;
            trace.appendConditional(pc, outcome);
        }
    }
    return trace;
}

SimOptions
everyKnob()
{
    SimOptions options;
    options.warmupBranches = 1000;
    options.flushInterval = 3000;
    options.windowSize = 512;
    options.topSites = 4;
    return options;
}

void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.predictorName, b.predictorName);
    EXPECT_EQ(a.traceName, b.traceName);
    EXPECT_EQ(a.conditionals, b.conditionals);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.storageBits, b.storageBits);
    EXPECT_EQ(a.windowSize, b.windowSize);
    // toJson() covers windows and topSites element by element.
    EXPECT_EQ(a.toJson().dump(2), b.toJson().dump(2));
}

std::vector<std::string>
exampleSpecs()
{
    std::vector<std::string> specs;
    for (const SchemeInfo &scheme : listSchemes()) {
        specs.push_back(scheme.example);
    }
    return specs;
}

class SessionEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SessionEquivalence, PlainStreamingMatchesBatch)
{
    const Trace trace = sessionTrace(1);
    auto batch_pred = makePredictor(GetParam());
    auto stream_pred = makePredictor(GetParam());

    const SimResult batch = simulate(*batch_pred, trace);
    MemoryTraceSource source(trace);
    const SimResult streamed =
        simulateSource(*stream_pred, source, SimOptions(), 777);
    expectSameResult(batch, streamed);
}

TEST_P(SessionEquivalence, AllKnobsStreamingMatchesBatch)
{
    const Trace trace = sessionTrace(2);
    auto batch_pred = makePredictor(GetParam());
    auto stream_pred = makePredictor(GetParam());

    CountingProbe batch_probe;
    SimOptions batch_options = everyKnob();
    batch_options.probe = &batch_probe;
    const SimResult batch =
        simulateWithOptions(*batch_pred, trace, batch_options);

    CountingProbe stream_probe;
    SimOptions stream_options = everyKnob();
    stream_options.probe = &stream_probe;
    MemoryTraceSource source(trace);
    const SimResult streamed =
        simulateSource(*stream_pred, source, stream_options, 1009);

    expectSameResult(batch, streamed);
    EXPECT_EQ(batch_probe.registry().toJson().dump(2),
              stream_probe.registry().toJson().dump(2));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SessionEquivalence,
    ::testing::ValuesIn(exampleSpecs()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == ':' || c == '-') {
                c = '_';
            }
        }
        return name;
    });

TEST(SimSession, ChunkBoundariesAreInvisible)
{
    const Trace trace = sessionTrace(3);
    const SimOptions options = everyKnob();

    auto reference_pred = makePredictor("gshare:10:8");
    const SimResult reference =
        simulateWithOptions(*reference_pred, trace, options);

    // One record per feed() — every boundary there is.
    auto drip_pred = makePredictor("gshare:10:8");
    SimSession drip(*drip_pred, options, trace.name());
    for (const BranchRecord &record : trace) {
        drip.feed(&record, 1);
    }
    expectSameResult(reference, drip.finish());

    // Randomized chunk sizes, including empty feeds.
    auto random_pred = makePredictor("gshare:10:8");
    SimSession random(*random_pred, options, trace.name());
    Rng rng(99);
    std::size_t at = 0;
    while (at < trace.size()) {
        const std::size_t n = std::min<std::size_t>(
            rng.uniformInt(300), trace.size() - at);
        random.feed(trace.records().data() + at, n);
        at += n;
    }
    expectSameResult(reference, random.finish());
}

TEST(SimSession, FeedAfterFinishFatals)
{
    auto predictor = makePredictor("bimodal:8");
    SimSession session(*predictor);
    session.finish();
    BranchRecord record{0x100, true, true};
    EXPECT_THROW(session.feed(&record, 1), FatalError);
}

TEST(SimSession, DoubleFinishFatals)
{
    auto predictor = makePredictor("bimodal:8");
    SimSession session(*predictor);
    session.finish();
    EXPECT_THROW(session.finish(), FatalError);
}

TEST(SimSession, AbandonedSessionRestoresProbe)
{
    GSharePredictor predictor(8, 6);
    CountingProbe outer;
    predictor.attachProbe(&outer);
    {
        CountingProbe inner;
        SimOptions options;
        options.probe = &inner;
        SimSession session(predictor, options);
        // Destroyed without finish(): the destructor must put the
        // outer probe back.
    }
    const Trace trace = sessionTrace(4, 100);
    simulate(predictor, trace);
    EXPECT_FALSE(outer.registry().toJson().dump().empty());
}

TEST(SimSession, ConditionalsSeenCountsWarmup)
{
    Trace trace("warm");
    for (int i = 0; i < 100; ++i) {
        trace.appendConditional(0x100, true);
    }
    auto predictor = makePredictor("bimodal:8");
    SimOptions options;
    options.warmupBranches = 60;
    SimSession session(*predictor, options, trace.name());
    session.feed(trace);
    EXPECT_EQ(session.conditionalsSeen(), 100u);
    const SimResult result = session.finish();
    EXPECT_EQ(result.conditionals, 40u);
}

TEST(TraceSources, BinaryStreamMatchesMemory)
{
    const Trace trace = sessionTrace(5);
    std::stringstream encoded;
    writeBinaryTrace(encoded, trace);

    MmapTraceSource source(MappedTrace::fromBytes(encoded.str()));
    EXPECT_EQ(source.name(), trace.name());
    EXPECT_EQ(source.remaining(), trace.size());

    auto stream_pred = makePredictor("egskew:8:6");
    const SimResult streamed =
        simulateSource(*stream_pred, source, everyKnob(), 511);
    EXPECT_EQ(source.remaining(), 0u);

    auto batch_pred = makePredictor("egskew:8:6");
    const SimResult batch =
        simulateWithOptions(*batch_pred, trace, everyKnob());
    expectSameResult(batch, streamed);
}

TEST(TraceSources, DrainRebuildsTheTrace)
{
    const Trace trace = sessionTrace(6, 5000);
    MemoryTraceSource source(trace);
    const Trace drained = drainSource(source, 97);
    ASSERT_EQ(drained.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_EQ(drained[i], trace[i]) << "record " << i;
    }
}

TEST(TraceSources, SizeHintOnlyWhenLengthValidated)
{
    // drainSource() pre-reserves from sizeHint(), which must report
    // only validated counts: the exact remainder for memory sources,
    // and for every binary source the header's record count, which
    // the image checked against its byte length when it was made.
    const Trace trace = sessionTrace(8, 300);
    MemoryTraceSource memory(trace);
    EXPECT_EQ(memory.sizeHint(), trace.size());

    std::stringstream encoded;
    writeBinaryTrace(encoded, trace);
    MmapTraceSource in_memory(MappedTrace::fromBytes(encoded.str()));
    EXPECT_EQ(in_memory.sizeHint(), trace.size());

    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("bpred_size_hint_" + std::to_string(::getpid()) + ".bpt"))
            .string();
    saveBinaryTrace(path, trace);
    const std::unique_ptr<TraceSource> from_file = openTraceSource(path);
    EXPECT_EQ(from_file->sizeHint(), trace.size());
    std::vector<BranchRecord> block(100);
    ASSERT_EQ(from_file->pull(block.data(), block.size()), 100u);
    EXPECT_EQ(from_file->sizeHint(), trace.size() - 100);
    std::filesystem::remove(path);
    if (gzSupported()) {
        const std::string gz = path + ".gz";
        ASSERT_TRUE(writeGzFile(gz, encoded.str()));
        const std::unique_ptr<TraceSource> from_gz = openCorpusSource(gz);
        EXPECT_EQ(from_gz->sizeHint(), trace.size());
        std::filesystem::remove(gz);
    }
}

TEST(TraceSources, WorkloadStreamMatchesGenerateWorkload)
{
    WorkloadParams params;
    params.name = "stream-check";
    params.seed = 42;
    params.dynamicConditionalTarget = 30'000;
    params.userQuantumMean = 2'000;

    const Trace batch = generateWorkload(params);

    // Tiny pull size forces many refill boundaries mid-quantum.
    WorkloadStream stream(params);
    const Trace streamed = drainSource(stream, 113);
    EXPECT_EQ(stream.conditionalsEmitted(),
              params.dynamicConditionalTarget);

    EXPECT_EQ(streamed.name(), batch.name());
    ASSERT_EQ(streamed.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(streamed[i], batch[i]) << "record " << i;
    }
}

class SnapshotRoundTrip
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SnapshotRoundTrip, ResumeIsBitIdentical)
{
    auto original = makePredictor(GetParam());
    if (!original->supportsSnapshot()) {
        GTEST_SKIP() << GetParam() << " does not snapshot";
    }

    const Trace trace = sessionTrace(7);
    const std::size_t half = trace.size() / 2;

    // Train to the midpoint, checkpoint, resume in a fresh
    // predictor; both must then predict the second half identically
    // and from identical state.
    SimSession first_half(*original);
    first_half.feed(trace.records().data(), half);
    first_half.finish();

    std::string checkpoint;
    savePredictorState(*original, checkpoint);

    auto resumed = makePredictor(GetParam());
    loadPredictorState(*resumed, checkpoint);

    std::string original_state;
    std::string resumed_state;
    savePredictorState(*original, original_state);
    savePredictorState(*resumed, resumed_state);
    EXPECT_EQ(original_state, resumed_state);

    SimSession original_rest(*original);
    original_rest.feed(trace.records().data() + half,
                       trace.size() - half);
    const SimResult a = original_rest.finish();

    SimSession resumed_rest(*resumed);
    resumed_rest.feed(trace.records().data() + half,
                      trace.size() - half);
    const SimResult b = resumed_rest.finish();

    EXPECT_EQ(a.conditionals, b.conditionals);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
}

/** The framed snapshot bytes of @p predictor. */
std::string
snapshotOf(const Predictor &predictor)
{
    std::string bytes;
    savePredictorState(predictor, bytes);
    return bytes;
}

/** Conditional and mispredict tallies of @p trace on @p predictor. */
std::pair<u64, u64>
tallies(Predictor &predictor, const Trace &trace)
{
    SimSession session(predictor);
    session.feed(trace);
    const SimResult result = session.finish();
    return {result.conditionals, result.mispredicts};
}

TEST_P(SnapshotRoundTrip, RecycledRestoreMatchesFresh)
{
    // A serving cache restores into the last evicted tenant's
    // predictor: loadState() must overwrite every piece of state that
    // predictor accumulated, not merge into it.
    auto source = makePredictor(GetParam());
    const Trace trained = sessionTrace(11);
    SimSession first(*source);
    first.feed(trained.records().data(), trained.size() / 2);
    first.finish();
    const std::string snapshot = snapshotOf(*source);

    auto recycled = makePredictor(GetParam());
    tallies(*recycled, sessionTrace(12));
    const std::string other = snapshotOf(*recycled);
    // Leave a predict() unpaired, as an interrupted request would.
    recycled->predict(0x2010);
    loadPredictorState(*recycled, snapshot);

    auto fresh = makePredictor(GetParam());
    loadPredictorState(*fresh, snapshot);
    EXPECT_EQ(snapshotOf(*recycled), snapshot);
    EXPECT_EQ(snapshotOf(*fresh), snapshot);

    const Trace next = sessionTrace(13, 10000);
    EXPECT_EQ(tallies(*recycled, next), tallies(*fresh, next));
    EXPECT_EQ(snapshotOf(*recycled), snapshotOf(*fresh));

    // A predict() latched on other state, then the snapshot loaded
    // and the branch resolved by update() alone (which every scheme
    // tolerates): no latch may survive the load.
    int probes = 0;
    for (const BranchRecord &record : sessionTrace(14, 200)) {
        if (!record.conditional) {
            continue;
        }
        loadPredictorState(*recycled, other);
        recycled->predict(record.pc);
        loadPredictorState(*recycled, snapshot);
        recycled->update(record.pc, record.taken);
        loadPredictorState(*fresh, snapshot);
        fresh->update(record.pc, record.taken);
        ASSERT_EQ(snapshotOf(*recycled), snapshotOf(*fresh))
            << "after an unpaired predict() of " << record.pc;
        ++probes;
    }
    EXPECT_GT(probes, 100);
}

TEST_P(SnapshotRoundTrip, MutatedSnapshotsLoadOrFailCleanly)
{
    // Seeded mutations of a real snapshot through the span decoder:
    // every truncation, random bit flips, and a huge u64 planted at
    // every offset (inflated counts wherever they sit). Each input
    // must load or raise FatalError — std::bad_alloc, any other
    // exception, or a sanitizer report is a failure.
    auto source = makePredictor(GetParam());
    const Trace trace = sessionTrace(21, 1500);
    tallies(*source, trace);
    const std::string good = snapshotOf(*source);
    auto target = makePredictor(GetParam());

    u64 loaded = 0;
    u64 rejected = 0;
    const auto attempt = [&](std::string_view bytes,
                             const std::string &what) {
        try {
            loadPredictorState(*target, bytes);
            ++loaded;
        } catch (const FatalError &) {
            ++rejected;
        } catch (const std::exception &error) {
            ADD_FAILURE() << what << ": " << error.what();
        }
    };

    for (std::size_t size = 0; size < good.size(); ++size) {
        attempt(std::string_view(good).substr(0, size),
                "truncation to " + std::to_string(size));
    }
    // A snapshot shorter than its payload never loads.
    EXPECT_EQ(loaded, 0u);

    Rng rng(0xf022 + good.size());
    for (int trial = 0; trial < 400; ++trial) {
        std::string flipped = good;
        const int flips = 1 + static_cast<int>(rng.uniformInt(4));
        for (int f = 0; f < flips; ++f) {
            const u64 bit = rng.uniformInt(flipped.size() * 8);
            flipped[bit / 8] = static_cast<char>(
                flipped[bit / 8] ^ (1 << (bit % 8)));
        }
        attempt(flipped, "bit flip trial " + std::to_string(trial));
    }

    for (const u64 count : {u64(1) << 58, ~u64(0)}) {
        for (std::size_t at = 0; at + 8 <= good.size(); ++at) {
            std::string inflated = good;
            for (unsigned b = 0; b < 8; ++b) {
                inflated[at + b] = static_cast<char>(count >> (8 * b));
            }
            attempt(inflated, "u64 at offset " + std::to_string(at));
        }
    }
    EXPECT_GT(rejected, 0u);

    // The predictor that saw every failure still restores exactly.
    loadPredictorState(*target, good);
    EXPECT_EQ(snapshotOf(*target), good);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SnapshotRoundTrip,
    ::testing::ValuesIn(exampleSpecs()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == ':' || c == '-') {
                c = '_';
            }
        }
        return name;
    });

TEST(Snapshot, EverySchemeSupportsIt)
{
    // The serving layer checkpoints tenants on eviction, so every
    // registered scheme must be snapshot-capable.
    for (const std::string &spec : exampleSpecs()) {
        EXPECT_TRUE(makePredictor(spec)->supportsSnapshot()) << spec;
    }
}

TEST(Snapshot, RejectsConfigurationMismatch)
{
    auto small = makePredictor("gshare:8:6");
    auto large = makePredictor("gshare:10:6");
    std::stringstream state;
    savePredictorState(*small, state);
    EXPECT_THROW(loadPredictorState(*large, state), FatalError);
}

TEST(Snapshot, RejectsBadMagic)
{
    auto predictor = makePredictor("gshare:8:6");
    std::stringstream garbage("this is not a snapshot");
    EXPECT_THROW(loadPredictorState(*predictor, garbage), FatalError);
}

TEST(Snapshot, RejectsTruncatedState)
{
    auto predictor = makePredictor("gshare:8:6");
    std::string bytes;
    savePredictorState(*predictor, bytes);
    bytes.resize(bytes.size() / 2);
    auto fresh = makePredictor("gshare:8:6");
    EXPECT_THROW(loadPredictorState(*fresh, bytes), FatalError);
}

/** The FatalError message of @p load, or "" when it succeeds. */
template <typename Load>
std::string
fatalMessage(Load load)
{
    try {
        load();
    } catch (const FatalError &error) {
        return error.what();
    }
    return "";
}

TEST(Snapshot, TrailingBytesFailThroughEveryEntryPoint)
{
    auto source = makePredictor("egskew:8:6");
    const std::string good = snapshotOf(*source);
    const std::string padded = good + '\0';
    const std::string want = "predictor snapshot: trailing bytes";
    auto target = makePredictor("egskew:8:6");

    EXPECT_NO_THROW(loadPredictorState(*target, std::string_view(good)));
    EXPECT_NE(fatalMessage([&] {
                  loadPredictorState(*target, std::string_view(padded));
              }).find(want),
              std::string::npos);

    std::istringstream stream(padded);
    EXPECT_NE(fatalMessage([&] { loadPredictorState(*target, stream); })
                  .find(want),
              std::string::npos);

    const std::filesystem::path path =
        ::testing::TempDir() + "bpred_trailing_snapshot.bps1";
    saveSnapshotFile(*source, path);
    EXPECT_NO_THROW(loadSnapshotFile(*target, path));
    {
        std::ofstream file(path, std::ios::binary | std::ios::app);
        file << "x";
    }
    EXPECT_NE(fatalMessage([&] { loadSnapshotFile(*target, path); })
                  .find(want),
              std::string::npos);
    std::filesystem::remove(path);

    TenantCache cache(parseSpec("egskew:8:6"), TenantCache::Options{});
    cache.importTenant(1, good);
    EXPECT_NE(fatalMessage([&] { cache.importTenant(1, padded); })
                  .find(want),
              std::string::npos);
    EXPECT_EQ(cache.exportTenant(1), good);
}

/* Files go through saveSnapshotFile()/loadSnapshotFile() only: a
 * literal or a path handed to the byte forms must not compile. */
template <typename Arg>
constexpr bool loadsFrom =
    requires(Predictor &p, Arg arg) { loadPredictorState(p, arg); };
template <typename Arg>
constexpr bool savesInto = requires(const Predictor &p, Arg arg) {
    savePredictorState(p, arg);
};
static_assert(loadsFrom<const std::string &>);
static_assert(loadsFrom<std::string_view>);
static_assert(!loadsFrom<const char *>);
static_assert(!loadsFrom<const std::filesystem::path &>);
static_assert(savesInto<std::string &>);
static_assert(!savesInto<const std::string &>);
static_assert(!savesInto<const char *>);
static_assert(!savesInto<const std::filesystem::path &>);

namespace
{

/** A predictor that keeps the base-class "no snapshots" default. */
class SnapshotlessPredictor : public Predictor
{
  public:
    bool predict(Addr) override { return true; }
    void update(Addr, bool) override {}
    std::string name() const override { return "snapshotless"; }
    u64 storageBits() const override { return 0; }
    void reset() override {}
};

} // namespace

TEST(Snapshot, UnsupportedSchemeFatalsCleanly)
{
    SnapshotlessPredictor predictor;
    ASSERT_FALSE(predictor.supportsSnapshot());
    std::stringstream state;
    EXPECT_THROW(savePredictorState(predictor, state), FatalError);
}

TEST(GangSession, MatchesIndependentSessionsBitForBit)
{
    // A gang over one trace must produce exactly the SimResults of
    // N independent per-predictor sessions — including bookkeeping
    // knobs that split blocks mid-way.
    const Trace trace = sessionTrace(41);
    const std::vector<std::string> specs = {
        "bimodal:8", "gshare:8:6", "gskewed:3:8:6", "egskew:8:6"};
    const SimOptions options = everyKnob();

    std::vector<std::unique_ptr<Predictor>> solo;
    std::vector<SimResult> want;
    for (const std::string &spec : specs) {
        solo.push_back(makePredictor(spec));
        want.push_back(
            simulateWithOptions(*solo.back(), trace, options));
    }

    std::vector<std::unique_ptr<Predictor>> ganged;
    GangSession gang;
    for (const std::string &spec : specs) {
        ganged.push_back(makePredictor(spec));
        gang.add(*ganged.back(), options, trace.name());
    }
    gang.feed(trace);
    const std::vector<SimResult> got = gang.finish();

    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].predictorName, got[i].predictorName);
        EXPECT_EQ(want[i].traceName, got[i].traceName);
        EXPECT_EQ(want[i].conditionals, got[i].conditionals);
        EXPECT_EQ(want[i].mispredicts, got[i].mispredicts);
        ASSERT_EQ(want[i].windows.size(), got[i].windows.size());
        for (std::size_t w = 0; w < want[i].windows.size(); ++w) {
            EXPECT_EQ(want[i].windows[w].branches,
                      got[i].windows[w].branches);
            EXPECT_EQ(want[i].windows[w].mispredicts,
                      got[i].windows[w].mispredicts);
        }
        ASSERT_EQ(want[i].topSites.size(), got[i].topSites.size());
        for (std::size_t s = 0; s < want[i].topSites.size(); ++s) {
            EXPECT_EQ(want[i].topSites[s].pc, got[i].topSites[s].pc);
            EXPECT_EQ(want[i].topSites[s].mispredicts,
                      got[i].topSites[s].mispredicts);
        }
    }
}

TEST(GangSession, ChunkedFeedsAndBlockSizesAreInvisible)
{
    // Feeding a gang in ragged chunks, at any block granularity,
    // must not change any member's result.
    const Trace trace = sessionTrace(42);
    auto a1 = makePredictor("gshare:8:6");
    auto a2 = makePredictor("gskewed:3:8:6");
    GangSession reference;
    reference.add(*a1);
    reference.add(*a2);
    reference.feed(trace);
    const std::vector<SimResult> want = reference.finish();

    for (const std::size_t block : {std::size_t(64),
                                    std::size_t(1000)}) {
        auto b1 = makePredictor("gshare:8:6");
        auto b2 = makePredictor("gskewed:3:8:6");
        GangSession gang(block);
        gang.add(*b1);
        gang.add(*b2);
        const BranchRecord *records = trace.records().data();
        std::size_t at = 0;
        std::size_t chunk = 17;
        while (at < trace.size()) {
            const std::size_t n =
                std::min(chunk, trace.size() - at);
            gang.feed(records + at, n);
            at += n;
            chunk = chunk * 3 + 1;
        }
        const std::vector<SimResult> got = gang.finish();
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(want[i].mispredicts, got[i].mispredicts)
                << "block " << block << " member " << i;
            EXPECT_EQ(want[i].conditionals, got[i].conditionals);
        }
    }
}

TEST(GangSession, SimulateGangMatchesSimulate)
{
    const Trace trace = sessionTrace(43);
    auto solo1 = makePredictor("bimodal:8");
    auto solo2 = makePredictor("hybrid:8:6");
    const SimResult want1 = simulate(*solo1, trace);
    const SimResult want2 = simulate(*solo2, trace);

    auto g1 = makePredictor("bimodal:8");
    auto g2 = makePredictor("hybrid:8:6");
    const std::vector<SimResult> got =
        simulateGang({g1.get(), g2.get()}, trace);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(want1.mispredicts, got[0].mispredicts);
    EXPECT_EQ(want2.mispredicts, got[1].mispredicts);
    EXPECT_EQ(want1.conditionals, got[0].conditionals);
    EXPECT_EQ(want2.conditionals, got[1].conditionals);
}

TEST(GangSession, LifecycleMisuseFatals)
{
    const Trace trace = sessionTrace(44, 2000);
    auto predictor = makePredictor("gshare:8:6");
    GangSession gang;
    const std::size_t index = gang.add(*predictor);
    gang.feed(trace);
    auto late = makePredictor("bimodal:8");
    EXPECT_THROW(gang.add(*late), FatalError);
    gang.finish();
    EXPECT_EQ(gang.memberError(index), nullptr);
    EXPECT_THROW(gang.feed(trace), FatalError);
    EXPECT_THROW(simulateGang({nullptr}, trace), FatalError);
}


/*
 * A gang stages each block's conditional branches once and lets
 * every member whose replay starts from the same history reuse them.
 * The cases below feed gangs the shapes that could make a stale or
 * foreign staging look valid, and require every member to match its
 * solo simulateWithOptions() run exactly.
 */

/**
 * A trace of @p blocks blocks of @p block_records records each whose
 * last 80 records are all taken, so every block after the first is
 * entered with the all-ones history.
 */
Trace
allTakenTailTrace(u64 seed, std::size_t blocks,
                  std::size_t block_records)
{
    Trace trace("tails");
    Rng rng(seed);
    for (std::size_t b = 0; b < blocks; ++b) {
        for (std::size_t i = 0; i < block_records; ++i) {
            const Addr pc = 0x4000 + 4 * rng.uniformInt(700);
            if (i + 80 >= block_records) {
                if (i % 5 == 0) {
                    trace.appendUnconditional(pc + 0x40000);
                } else {
                    trace.appendConditional(pc, true);
                }
            } else if (rng.chance(0.15)) {
                trace.appendUnconditional(pc + 0x40000);
            } else {
                trace.appendConditional(pc, (pc >> 2) % 5 == 0
                                                ? rng.chance(0.9)
                                                : rng.chance(0.4));
            }
        }
    }
    return trace;
}

/** The result of each spec run alone over @p trace. */
std::vector<SimResult>
soloResults(const std::vector<std::string> &specs, const Trace &trace,
            const SimOptions &options)
{
    std::vector<SimResult> results;
    for (const std::string &spec : specs) {
        auto predictor = makePredictor(spec);
        results.push_back(
            simulateWithOptions(*predictor, trace, options));
    }
    return results;
}

TEST(GangSession, ReusedFeedBufferNeverServesAStaleBlock)
{
    // The corpus runner's shape: one buffer refilled with the next
    // equal-sized block of the trace before each feed. Buffer
    // address, record count and (after an all-taken tail) the
    // all-ones entry history repeat from block to block; only the
    // records differ.
    constexpr std::size_t block = 4096;
    const Trace trace = allTakenTailTrace(51, 6, block);
    const std::vector<std::string> specs = {
        "gshare:10:8", "gskewed:3:9:8", "egskew:9:8", "gshare:12:12"};
    SimOptions options;
    options.topSites = 4;
    const std::vector<SimResult> want =
        soloResults(specs, trace, options);

    std::vector<std::unique_ptr<Predictor>> ganged;
    GangSession gang(block);
    for (const std::string &spec : specs) {
        ganged.push_back(makePredictor(spec));
        gang.add(*ganged.back(), options, trace.name());
    }
    std::vector<BranchRecord> buffer(block);
    for (std::size_t at = 0; at < trace.size(); at += block) {
        std::copy_n(trace.records().begin() + long(at), block,
                    buffer.begin());
        gang.feed(buffer.data(), block);
    }
    const std::vector<SimResult> got = gang.finish();
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE(specs[i]);
        expectSameResult(want[i], got[i]);
    }
}

TEST(GangSession, HeterogeneousMembersMatchTheirSoloRuns)
{
    // Members that enter a block with a history of their own (a
    // bimodal's stays 0, a restored snapshot's is foreign) or that
    // split blocks into segments (flush, warmup, windows) sit
    // between members that share every block's staging.
    const Trace trace = sessionTrace(52, 30000);
    const Trace training = sessionTrace(53, 5000);

    struct Member
    {
        std::string spec;
        SimOptions options;
        std::string snapshot;
    };
    SimOptions plain;
    plain.topSites = 4;
    std::vector<Member> members;
    members.push_back({"gshare:10:8", plain, ""});
    members.push_back({"gskewed:3:9:8", plain, ""});
    members.push_back({"bimodal:10", plain, ""});
    {
        auto trained = makePredictor("gskewed:3:9:8");
        simulate(*trained, training);
        members.push_back({"gskewed:3:9:8", plain, snapshotOf(*trained)});
    }
    SimOptions flushing = plain;
    flushing.flushInterval = 3000;
    members.push_back({"gshare:10:8", flushing, ""});
    SimOptions warming = plain;
    warming.warmupBranches = 1500;
    members.push_back({"egskew:9:8", warming, ""});
    SimOptions windowed = plain;
    windowed.windowSize = 700;
    members.push_back({"gshare:10:8", windowed, ""});
    members.push_back({"hybrid:9:6", plain, ""});
    members.push_back({"egskew:9:8", plain, ""});
    members.push_back({"gshare:12:12", plain, ""});
    members.push_back({"gskewed:5:9:10", plain, ""});

    const auto build = [](const Member &member) {
        auto predictor = makePredictor(member.spec);
        if (!member.snapshot.empty()) {
            loadPredictorState(*predictor, member.snapshot);
        }
        return predictor;
    };
    std::vector<SimResult> want;
    for (const Member &member : members) {
        auto predictor = build(member);
        want.push_back(
            simulateWithOptions(*predictor, trace, member.options));
    }

    std::vector<std::unique_ptr<Predictor>> ganged;
    GangSession gang;
    for (const Member &member : members) {
        ganged.push_back(build(member));
        gang.add(*ganged.back(), member.options, trace.name());
    }
    gang.feed(trace);
    const std::vector<SimResult> got = gang.finish();
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("member " + std::to_string(i) + " " +
                     members[i].spec);
        EXPECT_EQ(gang.memberError(i), nullptr);
        expectSameResult(want[i], got[i]);
    }
}

TEST(GangSession, SkewedFamilyMembersMatchTheirSoloRuns)
{
    // pskew runs the phase split over a local-history buffer of its
    // own and the shared-hysteresis schemes the block kernel; both
    // sit between gskewed members that share every block's staging.
    // Each member must match its solo run in tallies, top sites and
    // final snapshot bytes, under both dispatch modes.
    const Trace trace = sessionTrace(54, 30000);
    const Trace training = sessionTrace(55, 5000);
    const std::vector<std::string> specs = {
        "gskewed:3:9:8",       "pskew:8:6:3:9",
        "gskewed:3:9:8:total", "gskewedsh:3:9:8",
        "egskew:9:8",          "egskewsh:9:8:total",
        "pskew:9:8:5:9:total", "gskewed:5:9:10",
        "pskew:8:6:1:8",       "gskewedsh:5:9:6:partial-lazy",
        "gskewed:3:9:8",
    };
    // The second-to-last member resumes a trained pskew snapshot.
    const std::size_t restored = specs.size() - 2;
    auto trained = makePredictor(specs[restored]);
    simulate(*trained, training);
    const std::string snapshot = snapshotOf(*trained);
    const auto build = [&](std::size_t i) {
        auto predictor = makePredictor(specs[i]);
        if (i == restored) {
            loadPredictorState(*predictor, snapshot);
        }
        return predictor;
    };
    for (const SimdMode mode : {SimdMode::Scalar, SimdMode::Avx2}) {
        SimOptions options;
        options.simd = mode;
        options.topSites = 4;
        std::vector<SimResult> want;
        std::vector<std::string> wantState;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            auto predictor = build(i);
            want.push_back(simulateWithOptions(*predictor, trace, options));
            wantState.push_back(snapshotOf(*predictor));
        }
        std::vector<std::unique_ptr<Predictor>> ganged;
        GangSession gang;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            ganged.push_back(build(i));
            gang.add(*ganged.back(), options, trace.name());
        }
        gang.feed(trace);
        const std::vector<SimResult> got = gang.finish();
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            SCOPED_TRACE("member " + std::to_string(i) + " " + specs[i] +
                         " mode=" + std::string(simdModeName(mode)));
            EXPECT_EQ(gang.memberError(i), nullptr);
            expectSameResult(want[i], got[i]);
            EXPECT_EQ(snapshotOf(*ganged[i]), wantState[i]);
        }
    }
}

/**
 * A member that stages its blocks through the phase-split tile walk
 * like a real scheme, then throws from a tile's resolve partway
 * through block @p fail_block — after it has staged that block's
 * first tiles.
 */
class FailingTileWalker : public Predictor
{
  public:
    explicit FailingTileWalker(std::size_t fail_block)
        : failBlock(fail_block)
    {
    }

    bool predict(Addr) override { return true; }
    void update(Addr, bool) override {}
    std::string name() const override { return "failing-walker"; }
    u64 storageBits() const override { return 0; }
    void reset() override { history = 0; }

    void
    replayBlock(const BranchRecord *records, std::size_t count,
                ReplayCounters &, ReplayScratch *scratch) override
    {
        ASSERT_NE(scratch, nullptr);
        const bool failing = blocks++ == failBlock;
        std::size_t tiles = 0;
        history = replayTiled(
            records, count, history, *scratch, 1,
            [&](auto &&...) {
                if (failing && ++tiles == 3) {
                    throw std::runtime_error("tile resolve failed");
                }
            });
    }

  private:
    std::size_t failBlock;
    std::size_t blocks = 0;
    u64 history = 0;
};

TEST(GangSession, MemberFailingMidBlockLeavesMatesExact)
{
    // The failing member replays first, so it is the one staging
    // the shared tiles; it dies after staging three tiles of its
    // third block, and the members after it must still see exactly
    // the records of every block.
    const Trace trace = sessionTrace(54, 40000);
    const std::vector<std::string> specs = {
        "gshare:10:8", "gskewed:3:9:8", "egskew:9:8"};
    SimOptions options;
    options.topSites = 4;
    const std::vector<SimResult> want =
        soloResults(specs, trace, options);

    FailingTileWalker failing(2);
    std::vector<std::unique_ptr<Predictor>> ganged;
    GangSession gang;
    gang.add(failing);
    for (const std::string &spec : specs) {
        ganged.push_back(makePredictor(spec));
        gang.add(*ganged.back(), options, trace.name());
    }
    gang.feed(trace);
    const std::vector<SimResult> got = gang.finish();
    ASSERT_NE(gang.memberError(0), nullptr);
    ASSERT_EQ(got.size(), specs.size() + 1);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i]);
        EXPECT_EQ(gang.memberError(i + 1), nullptr);
        expectSameResult(want[i], got[i + 1]);
    }
}

} // namespace
} // namespace bpred
