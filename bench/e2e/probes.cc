/**
 * @file
 * Layer probes: the public layer calls no workload makes directly
 * (the workloads reach them only through runCorpus, SweepRunner,
 * measureThreeCsMulti or the pool), each timed in isolation on one
 * seed-derived sample trace, so a change to one layer shows up in
 * its own number before it shows up (or fails to) end to end.
 * README.md maps every probe to the end-to-end metric and workload
 * it should move.
 *
 * Rates are the median of a few repetitions; per-call latencies
 * (snapshot, request replay) are medians over many calls.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "aliasing/fa_lru_table.hh"
#include "aliasing/index_function.hh"
#include "aliasing/stack_distance.hh"
#include "aliasing/tagged_table.hh"
#include "e2e.hh"
#include "predictors/history.hh"
#include "predictors/info_vector.hh"
#include "predictors/replay_scratch.hh"
#include "sim/factory.hh"
#include "sim/gang.hh"
#include "sim/session.hh"
#include "support/logging.hh"
#include "trace/adapters.hh"
#include "trace/trace_io.hh"
#include "workloads/presets.hh"
#include "workloads/process_mix.hh"

namespace bench_e2e
{

using namespace bpred;
using Clock = std::chrono::steady_clock;

namespace
{

/** Repetitions behind every rate probe. */
constexpr unsigned probeReps = 3;

double
median(std::vector<double> values)
{
    return summarize(std::move(values)).median;
}

/** Median wall seconds over @p reps calls of @p body. */
double
medianSeconds(unsigned reps, const std::function<void()> &body)
{
    std::vector<double> seconds;
    for (unsigned rep = 0; rep < reps; ++rep) {
        const auto started = Clock::now();
        body();
        seconds.push_back(secondsSince(started));
    }
    return median(seconds);
}

/** Drain @p source; returns the records pulled. */
u64
drain(TraceSource &source, std::vector<BranchRecord> &block)
{
    u64 records = 0;
    while (const std::size_t n = source.pull(block.data(), block.size())) {
        records += n;
    }
    return records;
}

/** Replay @p trace through @p predictor block by block (the gang
 * kernel path, single thread). */
ReplayCounters
replayTrace(Predictor &predictor, const Trace &trace)
{
    ReplayCounters counters;
    ReplayScratch scratch;
    const BranchRecord *records = trace.records().data();
    for (std::size_t at = 0; at < trace.size();
         at += defaultReplayBlockRecords) {
        const std::size_t n =
            std::min(defaultReplayBlockRecords, trace.size() - at);
        predictor.replayBlock(records + at, n, counters, &scratch);
    }
    return counters;
}

struct Recorder
{
    std::vector<Measurement> &out;

    void
    operator()(const std::string &name, double value,
               const std::string &unit) const
    {
        out.push_back({name, value, unit});
    }
};

void
probeTrace(const Trace &sample, const std::string &dir,
           const Recorder &add, Verdict &verdict)
{
    const double records = static_cast<double>(sample.size());
    const std::string bpt = dir + "/sample.bpt";
    const std::string gz = dir + "/sample.bpt.gz";
    const std::string txt = dir + "/sample.txt";

    std::string bytes;
    const double encode = medianSeconds(probeReps, [&] {
        std::ostringstream os;
        writeBinaryTrace(os, sample);
        bytes = os.str();
    });
    add("trace.encode_mrec_s", records / encode / 1e6, "Mrec/s");
    {
        std::ofstream os(bpt, std::ios::binary);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        std::ofstream text(txt);
        writeTextTrace(text, sample);
        if (!os || !text) {
            fatal("probe: cannot write sample files under " + dir);
        }
    }
    const double gzWrite = medianSeconds(probeReps, [&] {
        if (!writeGzFile(gz, bytes)) {
            fatal("probe: this build cannot write .gz files");
        }
    });
    add("trace.gz_write_mrec_s", records / gzWrite / 1e6, "Mrec/s");

    for (const auto &[path, suffix] :
         {std::pair{bpt, "bpt"}, std::pair{gz, "gz"},
          std::pair{txt, "txt"}}) {
        add(std::string("trace.bytes_per_rec.") + suffix,
            static_cast<double>(std::filesystem::file_size(path)) /
                records,
            "B/rec");
    }

    std::vector<BranchRecord> block(defaultReplayBlockRecords);
    const double open = medianSeconds(9, [&] {
        auto source = openCorpusSource(bpt);
    });
    add("trace.open_ms", 1e3 * open, "ms");

    // mmap'd .bpt decodes lazily: time the drain alone.
    std::vector<double> bptSeconds;
    for (unsigned rep = 0; rep < probeReps; ++rep) {
        auto source = openCorpusSource(bpt);
        const auto started = Clock::now();
        const u64 pulled = drain(*source, block);
        bptSeconds.push_back(secondsSince(started));
        verdict.check(pulled == sample.size(),
                      "probe: .bpt drain record count");
    }
    add("trace.decode_bpt_mrec_s", records / median(bptSeconds) / 1e6,
        "Mrec/s");

    // gz and text materialize at open: time open plus drain.
    for (const auto &[path, name] :
         {std::pair{gz, "trace.decode_gz_mrec_s"},
          std::pair{txt, "trace.decode_txt_mrec_s"}}) {
        u64 pulled = 0;
        const double seconds = medianSeconds(probeReps, [&] {
            auto source = openCorpusSource(path);
            pulled = drain(*source, block);
        });
        verdict.check(pulled == sample.size(),
                      std::string("probe: ") + name + " record count");
        add(name, records / seconds / 1e6, "Mrec/s");
    }
}

void
probePredictors(const Trace &sample, const Recorder &add)
{
    const double records = static_cast<double>(sample.size());
    const char *names[] = {"predictors.replay_mrec_s.gshare",
                           "core.replay_mrec_s.gskewed",
                           "core.replay_mrec_s.egskew"};
    for (std::size_t s = 0; s < corpusSpecs().size(); ++s) {
        std::vector<double> seconds;
        for (unsigned rep = 0; rep < probeReps; ++rep) {
            auto predictor = makePredictor(corpusSpecs()[s]);
            const auto started = Clock::now();
            replayTrace(*predictor, sample);
            seconds.push_back(secondsSince(started));
        }
        add(names[s], records / median(seconds) / 1e6, "Mrec/s");
    }

    // Snapshot and request costs of the serve workload's predictor.
    const PredictorSpec spec = parseSpec("egskew:10:8");
    auto predictor = makePredictor(spec);
    replayTrace(*predictor, sample);
    std::string bytes;
    std::vector<double> saveUs;
    std::vector<double> loadUs;
    for (int i = 0; i < 200; ++i) {
        auto started = Clock::now();
        std::ostringstream os;
        savePredictorState(*predictor, os);
        bytes = os.str();
        saveUs.push_back(1e6 * secondsSince(started));

        auto restored = makePredictor(spec);
        started = Clock::now();
        std::istringstream is(bytes);
        loadPredictorState(*restored, is);
        loadUs.push_back(1e6 * secondsSince(started));
    }
    add("predictors.snapshot_save_us", median(saveUs), "us");
    add("predictors.snapshot_load_us", median(loadUs), "us");

    constexpr std::size_t quantum = 256;
    ReplayScratch scratch;
    ReplayCounters counters;
    std::vector<double> requestUs;
    const std::size_t slices = sample.size() / quantum;
    for (std::size_t i = 0; i < std::min<std::size_t>(slices, 2000);
         ++i) {
        // Stride across the trace so requests see varied code.
        const std::size_t at = (i * 7919 % slices) * quantum;
        const auto started = Clock::now();
        predictor->replayBlock(sample.records().data() + at, quantum,
                               counters, &scratch);
        requestUs.push_back(1e6 * secondsSince(started));
    }
    add("predictors.request_replay_us", median(requestUs), "us");
}

void
probeSim(const Trace &sample, const Recorder &add)
{
    const double records = static_cast<double>(sample.size());

    // Gang replay of the corpus specs over records already in memory.
    const double gang = medianSeconds(probeReps, [&] {
        std::vector<std::unique_ptr<Predictor>> owned;
        std::vector<Predictor *> predictors;
        for (const std::string &spec : corpusSpecs()) {
            owned.push_back(makePredictor(spec));
            predictors.push_back(owned.back().get());
        }
        simulateGang(predictors, sample);
    });
    add("sim.gang_mrec_s", records / gang / 1e6, "Mrec/s");

    // Top-site attribution, the corpus reference member's path.
    const double topk = medianSeconds(probeReps, [&] {
        auto predictor = makePredictor(corpusSpecs().front());
        SimOptions options;
        options.topSites = 16;
        SimSession session(*predictor, options, sample.name());
        session.feed(sample);
        session.finish();
    });
    add("sim.topk_session_mrec_s", records / topk / 1e6, "Mrec/s");
}

void
probeAliasing(const Trace &sample, const Recorder &add)
{
    // (pc, history) identities and gshare indices at h=12, 4K entries.
    constexpr unsigned bits = 12;
    constexpr unsigned history = 12;
    std::vector<u64> keys;
    std::vector<u64> indices;
    GlobalHistory global;
    const IndexFunction gshare{IndexKind::GShare, bits, history};
    for (const BranchRecord &record : sample) {
        if (!record.conditional) {
            global.shiftIn(true);
            continue;
        }
        keys.push_back(packInfoVector(record.pc, global.raw(), history));
        indices.push_back(gshare(record.pc, global.raw()));
        global.shiftIn(record.taken);
    }
    const double refs = static_cast<double>(keys.size());

    double sink = 0.0;
    const double dm = medianSeconds(probeReps, [&] {
        TaggedDirectMappedTable table(bits);
        for (std::size_t i = 0; i < keys.size(); ++i) {
            table.access(indices[i], keys[i]);
        }
        sink += table.aliasing().ratio();
    });
    add("aliasing.tagged_dm_mref_s", refs / dm / 1e6, "Mref/s");
    const double fa = medianSeconds(probeReps, [&] {
        FullyAssociativeLruTable table(u64(1) << bits);
        for (const u64 key : keys) {
            table.access(key);
        }
        sink += table.missStat().ratio();
    });
    add("aliasing.fa_lru_mref_s", refs / fa / 1e6, "Mref/s");
    const double stack = medianSeconds(probeReps, [&] {
        StackDistanceTracker tracker;
        for (const u64 key : keys) {
            sink += static_cast<double>(tracker.reference(key) & 1);
        }
    });
    add("aliasing.stack_distance_mref_s", refs / stack / 1e6, "Mref/s");
    if (!(sink >= 0.0)) {
        fatal("probe: aliasing sink is not a number");
    }
}

} // namespace

std::vector<Measurement>
runLayerProbes(const Config &config, Verdict &verdict)
{
    std::vector<Measurement> out;
    const Recorder add{out};

    // One real_gcc-like trace (the largest static working set),
    // ~1M records at scale 1, seed-derived like every workload input.
    WorkloadParams params = ibsPreset("real_gcc", 0.4 * config.scale);
    params.seed ^= config.seed;
    const Trace sample = generateWorkload(params);

    const std::string dir =
        (std::filesystem::path(config.tmpDir) / "probes").string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    probeTrace(sample, dir, add, verdict);
    probePredictors(sample, add);
    probeSim(sample, add);
    probeAliasing(sample, add);

    std::filesystem::remove_all(dir);
    return out;
}

} // namespace bench_e2e
