/**
 * @file
 * The four benchmark workloads. Each one drives a different layer
 * stack through public entry points only (README.md says why each
 * was chosen and which layers it bypasses):
 *
 *   sweep     SweepRunner::run() over the fig5/fig6/fig12 grid,
 *             one unit per preset
 *   corpus    runCorpus() over a mixed .bpt/.bpt.gz/.txt directory
 *   aliasing  measureThreeCsMulti() fig1/fig2 cells + the model,
 *             one unit per preset
 *   serve     a closed loop of 32-request waves into PredictorPool
 *
 * Sizes are per unit of Config::scale. sweep and aliasing keep
 * long traces: at shorter ones cold start dominates the large
 * tables and moves their mispredict rates and three-Cs shares.
 * corpus and serve run short units, at which their regime (the text
 * members' share of the worker time, the cache-hit fraction) is the
 * same as at long ones. README.md gives the check.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <tuple>

#include "aliasing/three_c.hh"
#include "core/skewed_predictor.hh"
#include "e2e.hh"
#include "model/extrapolation.hh"
#include "predictors/gshare.hh"
#include "serve/predictor_pool.hh"
#include "sim/corpus.hh"
#include "sim/factory.hh"
#include "sim/parallel.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/stat_registry.hh"
#include "support/tracing.hh"
#include "trace/adapters.hh"
#include "trace/trace_io.hh"
#include "workloads/presets.hh"
#include "workloads/process_mix.hh"

namespace bench_e2e
{

using namespace bpred;

namespace
{

/**
 * Generate the six-preset suite at @p scale with @p seed XORed into
 * each preset's seed.
 */
std::vector<Trace>
generateSuite(u64 seed, double scale, SetupResult &setup)
{
    const double started = cpuSeconds();
    std::vector<Trace> traces;
    for (const std::string &name : ibsBenchmarkNames()) {
        WorkloadParams params = ibsPreset(name, scale);
        params.seed ^= seed;
        traces.push_back(generateWorkload(params));
        setup.generatedRecords += traces.back().size();
    }
    setup.generateSeconds += cpuSeconds() - started;
    return traces;
}

/** The split predict()/update() loop: the reference every fast path
 * must match. */
SimResult
splitReference(Predictor &predictor, const BranchRecord *records,
               std::size_t count)
{
    SimResult result;
    for (std::size_t i = 0; i < count; ++i) {
        const BranchRecord &record = records[i];
        if (!record.conditional) {
            predictor.notifyUnconditional(record.pc);
            continue;
        }
        const bool predicted = predictor.predict(record.pc);
        ++result.conditionals;
        result.mispredicts += predicted != record.taken ? 1 : 0;
        predictor.update(record.pc, record.taken);
    }
    return result;
}

// ---------------------------------------------------------------- sweep

/**
 * The paper's core loop: per preset, 35 cells through one
 * SweepRunner::run(), which replays them as one gang. Replay kernels
 * carry all the work; no ingest, classification or serving.
 */
class SweepWorkload : public Workload
{
  public:
    explicit SweepWorkload(const Config &config) : config(config) {}

    SetupResult
    setup() override
    {
        SetupResult result;
        traces = generateSuite(config.seed, config.scale, result);
        results.assign(traces.size(), {});
        return result;
    }

    void release() override { traces.clear(); }

    std::size_t unitCount() const override { return traces.size(); }

    /** Unit @p t: the 35-cell grid on preset @p t. */
    UnitResult
    runUnit(std::size_t t) override
    {
        UnitResult unit;
        const Trace &trace = traces[t];
        SweepRunner runner(workerThreads);
        {
            TRACE_SCOPE("bench", "sim.enqueue");
            for (unsigned design = 0; design < sweepDesigns; ++design) {
                for (unsigned s = 0; s < sweepSizes; ++s) {
                    const unsigned bits = sweepMinBits + s;
                    runner.enqueue(
                        [design, bits] {
                            return makeSweepDesign(design, bits);
                        },
                        trace);
                    unit.work += trace.size();
                    ++unit.operations;
                }
            }
        }
        try {
            TRACE_SCOPE("bench", "sim.sweep_run");
            results[t] = runner.run();
        } catch (const std::exception &error) {
            warn(std::string("sweep: ") + error.what());
            unit.errors = unit.operations;
            results[t].clear();
            return unit;
        }
        const auto &stats = runner.metrics().entries();
        busyFraction =
            std::get<RunningStat>(stats.at("sweep.worker_busy_fraction"))
                .mean();
        gangMembers =
            std::get<Histogram>(stats.at("sweep.gang_occupancy")).mean();
        unit.digest = digestSeed;
        for (const SimResult &result : results[t]) {
            unit.digest = mixDigest(unit.digest, result.conditionals);
            unit.digest = mixDigest(unit.digest, result.mispredicts);
            unit.references += static_cast<double>(result.conditionals);
            unit.missed += static_cast<double>(result.mispredicts);
        }
        return unit;
    }

    /** One cell per design and preset, re-run through the split
     * predict()/update() reference. */
    void
    verify(Verdict &verdict) override
    {
        for (std::size_t t = 0; t < traces.size(); ++t) {
            for (unsigned design = 0; design < sweepDesigns; ++design) {
                // Rotate the size so every size gets checked.
                const unsigned s =
                    static_cast<unsigned>(t + design) % sweepSizes;
                const std::size_t cell = design * sweepSizes + s;
                auto predictor = makeSweepDesign(design, sweepMinBits + s);
                const SimResult reference =
                    splitReference(*predictor, traces[t].records().data(),
                                   traces[t].size());
                const bool ok = cell < results[t].size() &&
                    results[t][cell].conditionals ==
                        reference.conditionals &&
                    results[t][cell].mispredicts == reference.mispredicts;
                verdict.check(ok, "sweep cell " + std::to_string(cell) +
                                  " on " + traces[t].name() +
                                  " differs from split predict/update");
            }
        }
    }

    void
    layers(const SpanReport &spans, std::vector<Measurement> &out) override
    {
        out.push_back({"sim.sweep_run_s",
                       spans.merged("bench/sim.sweep_run").totalSeconds,
                       "s"});
        out.push_back({"sim.worker_busy_frac", busyFraction, "fraction"});
        out.push_back({"sim.gang_members_mean", gangMembers, "count"});
    }

  private:
    Config config;
    std::vector<Trace> traces;

    /** Per preset, the cells of its last run. */
    std::vector<std::vector<SimResult>> results;

    /** SweepRunner::metrics() of the last unit run. */
    double busyFraction = 0.0;
    double gangMembers = 0.0;
};

// --------------------------------------------------------------- corpus

/**
 * Ingest plus classification: the presets written as 6 .bpt, 2
 * .bpt.gz and 2 .txt files and swept by runCorpus(). Text parsing
 * is the slowest decoder and sets the critical path.
 */
class CorpusWorkload : public Workload
{
  public:
    explicit CorpusWorkload(const Config &config)
        : config(config),
          directory((std::filesystem::path(config.tmpDir) / "corpus")
                        .string())
    {}

    SetupResult
    setup() override
    {
        if (!gzSupported()) {
            fatal("corpus workload needs zlib for its .bpt.gz members");
        }
        SetupResult result;
        traces = generateSuite(config.seed, 0.4 * config.scale, result);
        std::filesystem::remove_all(directory);
        std::filesystem::create_directories(directory);
        // File name -> index of the in-memory trace it holds.
        fileTrace.clear();
        for (std::size_t t = 0; t < traces.size(); ++t) {
            const std::string name = traces[t].name();
            const std::string bpt = name + ".bpt";
            saveBinaryTrace(directory + "/" + bpt, traces[t]);
            fileTrace[bpt] = t;
            if (t == 2 || t == 5) { // mpeg_play, verilog
                std::ostringstream bytes;
                writeBinaryTrace(bytes, traces[t]);
                const std::string gz = "gz-" + name + ".bpt.gz";
                writeGzFile(directory + "/" + gz, bytes.str());
                fileTrace[gz] = t;
            }
            if (t == 0 || t == 3) { // groff, nroff
                const std::string txt = "txt-" + name + ".txt";
                std::ofstream os(directory + "/" + txt);
                writeTextTrace(os, traces[t]);
                if (!os) {
                    fatal("corpus: cannot write " + txt);
                }
                fileTrace[txt] = t;
            }
        }
        return result;
    }

    void
    release() override
    {
        traces.clear();
        std::filesystem::remove_all(directory);
    }

    std::size_t unitCount() const override { return 1; }

    UnitResult
    runUnit(std::size_t) override
    {
        UnitResult unit;
        {
            TRACE_SCOPE("bench", "sim.corpus_run");
            report = runCorpus(directory, options(16));
        }
        unit.digest = digestSeed;
        for (const CorpusFileResult &file : report.files) {
            ++unit.operations;
            if (!file.error.empty()) {
                warn("corpus: " + file.file + ": " + file.error);
                ++unit.errors;
                continue;
            }
            unit.work += file.records;
            unit.digest = mixDigest(unit.digest, file.records);
            unit.digest = mixDigest(unit.digest, file.classes.hardSites);
            unit.digest =
                mixDigest(unit.digest, file.classes.hardMispredicts);
            for (const SimResult &result : file.results) {
                unit.digest = mixDigest(unit.digest, result.mispredicts);
                unit.references +=
                    static_cast<double>(result.conditionals);
                unit.missed += static_cast<double>(result.mispredicts);
            }
        }
        return unit;
    }

    /** Each file's per-spec tallies against simulateWithOptions on
     * the in-memory trace the file was written from. */
    void
    verify(Verdict &verdict) override
    {
        verdict.check(report.files.size() == fileTrace.size(),
                      "corpus: file count differs from files written");
        for (const CorpusFileResult &file : report.files) {
            const auto written = fileTrace.find(file.file);
            if (!file.error.empty() || written == fileTrace.end()) {
                verdict.check(false, "corpus: " + file.file +
                                         " has no clean result");
                continue;
            }
            const Trace &trace = traces[written->second];
            verdict.check(file.records == trace.size(),
                          "corpus: " + file.file + " record count");
            for (std::size_t s = 0; s < corpusSpecs().size(); ++s) {
                auto predictor = makePredictor(corpusSpecs()[s]);
                const SimResult reference =
                    simulateWithOptions(*predictor, trace, SimOptions());
                const bool ok = s < file.results.size() &&
                    file.results[s].conditionals ==
                        reference.conditionals &&
                    file.results[s].mispredicts == reference.mispredicts;
                verdict.check(ok, "corpus: " + file.file + " spec " +
                                  corpusSpecs()[s] +
                                  " differs from simulateWithOptions");
            }
        }
    }

    /** sim.classify_s is the run with top-site classification minus
     * the same run without it: CPU-time medians of three untraced
     * runs each, alternated so slow host phases hit both sides. */
    void
    layers(const SpanReport &spans, std::vector<Measurement> &out) override
    {
        out.push_back({"sim.corpus_run_s",
                       spans.merged("bench/sim.corpus_run").totalSeconds,
                       "s"});
        std::vector<double> classified;
        std::vector<double> unclassified;
        for (int round = 0; round < 3; ++round) {
            for (const unsigned topSites : {16u, 0u}) {
                const double started = cpuSeconds();
                runCorpus(directory, options(topSites));
                (topSites == 0 ? unclassified : classified)
                    .push_back(cpuSeconds() - started);
            }
        }
        out.push_back({"sim.classify_s",
                       summarize(classified).median -
                           summarize(unclassified).median,
                       "s"});
        const SpanRow files = spans.merged("corpus/file-replay");
        out.push_back({"sim.critical_file_s",
                       files.durations.empty()
                           ? 0.0
                           : *std::max_element(files.durations.begin(),
                                               files.durations.end()),
                       "s"});
    }

  private:
    static CorpusOptions
    options(unsigned topSites)
    {
        CorpusOptions options;
        options.specs = corpusSpecs();
        options.threads = workerThreads;
        options.topSites = topSites;
        return options;
    }

    Config config;
    std::string directory;
    std::vector<Trace> traces;
    std::map<std::string, std::size_t> fileTrace;
    CorpusReport report;
};

// ------------------------------------------------------------- aliasing

/** One parallelMap job's result: a three-Cs cell or a model run. */
struct AliasingCell
{
    std::vector<ThreeCsResult> threeCs;
    ExtrapolationResult model;
    bool isModel = false;

    /** CPU milliseconds the job took: one request. */
    double cpuMs = 0.0;
};

/**
 * The measurement side of the paper: tagged direct-mapped tables,
 * FA-LRU tables and stack distances for the fig1 (h=4, 1K-64K) and
 * fig2 (h=12, 4K-256K) cells, plus the model inputs and
 * extrapolation, one preset per unit. No replay kernel runs here.
 */
class AliasingWorkload : public Workload
{
  public:
    explicit AliasingWorkload(const Config &config) : config(config) {}

    SetupResult
    setup() override
    {
        SetupResult result;
        traces = generateSuite(config.seed, 0.5 * config.scale, result);
        conditionals.clear();
        for (const Trace &trace : traces) {
            conditionals.push_back(
                computeTraceStats(trace).dynamicConditional);
        }
        cells.assign(traces.size(), {});
        return result;
    }

    void release() override { traces.clear(); }

    std::size_t unitCount() const override { return traces.size(); }

    /** Unit @p t: the 14 fig1/fig2 cells and the model on preset @p t,
     * as parallelMap jobs; each job is a request. */
    UnitResult
    runUnit(std::size_t t) override
    {
        UnitResult unit;
        const Trace *trace = &traces[t];
        std::vector<std::function<AliasingCell()>> jobs;
        for (const auto &[history, minBits] : figureGrid) {
            for (unsigned s = 0; s < sweepSizes; ++s) {
                const unsigned bits = minBits + s;
                const unsigned h = history;
                jobs.push_back([trace, bits, h] {
                    const double started = threadCpuSeconds();
                    AliasingCell cell;
                    const std::vector<IndexFunction> functions = {
                        {IndexKind::GShare, bits, h},
                        {IndexKind::GSelect, bits, h}};
                    if (h == 4) {
                        TRACE_SCOPE("bench", "aliasing.three_cs_h4");
                        cell.threeCs =
                            measureThreeCsMulti(*trace, functions);
                    } else {
                        TRACE_SCOPE("bench", "aliasing.three_cs_h12");
                        cell.threeCs =
                            measureThreeCsMulti(*trace, functions);
                    }
                    cell.cpuMs = 1e3 * (threadCpuSeconds() - started);
                    return cell;
                });
                unit.work += conditionals[t];
            }
        }
        jobs.push_back([trace] {
            const double started = threadCpuSeconds();
            AliasingCell cell;
            cell.isModel = true;
            TraceModelInputs inputs;
            {
                TRACE_SCOPE("bench", "model.inputs");
                inputs = measureModelInputs(*trace, 12);
            }
            {
                TRACE_SCOPE("bench", "model.extrapolate");
                cell.model = extrapolateMispredictions(*trace, 12, 4096,
                                                       16384, inputs);
            }
            cell.cpuMs = 1e3 * (threadCpuSeconds() - started);
            return cell;
        });
        // The model walks the trace twice (inputs, extrapolation).
        unit.work += 2 * conditionals[t];
        unit.operations = jobs.size();
        {
            TRACE_SCOPE("bench", "aliasing.parallel_map");
            cells[t] = parallelMap(jobs, workerThreads);
        }
        unit.digest = digestSeed;
        for (const AliasingCell &cell : cells[t]) {
            unit.latenciesMs.push_back(cell.cpuMs);
            for (const ThreeCsResult &result : cell.threeCs) {
                unit.digest =
                    mixDigest(unit.digest, bitsOf(result.totalAliasing));
                unit.digest =
                    mixDigest(unit.digest, bitsOf(result.faMissRatio));
            }
            if (cell.isModel) {
                unit.digest = mixDigest(
                    unit.digest, bitsOf(cell.model.skewedExtrapolated));
            } else if (!cell.threeCs.empty()) {
                const ThreeCsResult &gshare = cell.threeCs.front();
                unit.missed += gshare.totalAliasing *
                    static_cast<double>(gshare.dynamicBranches);
                unit.references +=
                    static_cast<double>(gshare.dynamicBranches);
            }
        }
        return unit;
    }

    /** compulsory <= FA miss ratio everywhere, and one cell per preset
     * recomputed with the single-function measureThreeCs(). */
    void
    verify(Verdict &verdict) override
    {
        for (const std::vector<AliasingCell> &preset : cells) {
            for (const AliasingCell &cell : preset) {
                for (const ThreeCsResult &result : cell.threeCs) {
                    verdict.check(
                        result.compulsory <= result.faMissRatio,
                        "aliasing: compulsory > FA miss ratio for " +
                            result.function.name());
                }
            }
        }
        for (std::size_t t = 0; t < traces.size(); ++t) {
            // Rotate through the fig1 sizes, one cell per preset.
            const std::size_t s = t % sweepSizes;
            if (s >= cells[t].size() || cells[t][s].threeCs.empty()) {
                verdict.check(false, "aliasing: missing cell");
                continue;
            }
            const ThreeCsResult &multi = cells[t][s].threeCs.front();
            const ThreeCsResult single =
                measureThreeCs(traces[t], multi.function);
            verdict.check(single.totalAliasing == multi.totalAliasing &&
                              single.faMissRatio == multi.faMissRatio &&
                              single.compulsory == multi.compulsory,
                          "aliasing: " + multi.function.name() + " on " +
                              traces[t].name() +
                              " differs from measureThreeCs");
        }
    }

    /** Three-Cs rates are references per second of one worker: the
     * cells' references over the summed time of their spans. */
    void
    layers(const SpanReport &spans, std::vector<Measurement> &out) override
    {
        u64 references = 0;
        for (const u64 count : conditionals) {
            references += sweepSizes * count;
        }
        for (const auto &[span, name] :
             {std::pair{"bench/aliasing.three_cs_h4",
                        "aliasing.three_cs_h4_mref_s"},
              std::pair{"bench/aliasing.three_cs_h12",
                        "aliasing.three_cs_h12_mref_s"}}) {
            out.push_back({name,
                           static_cast<double>(references) /
                               spans.merged(span).totalSeconds / 1e6,
                           "Mref/s"});
        }
        out.push_back({"model.inputs_s",
                       spans.merged("bench/model.inputs").totalSeconds,
                       "s"});
        out.push_back({"model.extrapolate_s",
                       spans.merged("bench/model.extrapolate").totalSeconds,
                       "s"});
    }

  private:
    static u64
    bitsOf(double value)
    {
        u64 bits = 0;
        static_assert(sizeof(bits) == sizeof(value));
        std::memcpy(&bits, &value, sizeof(bits));
        return bits;
    }

    /** (history, smallest log2 size): fig1 then fig2. */
    static constexpr std::pair<unsigned, unsigned> figureGrid[] = {
        {4, 10}, {12, 12}};

    Config config;
    std::vector<Trace> traces;
    std::vector<u64> conditionals;

    /** Per preset, the jobs' results of its last run. */
    std::vector<std::vector<AliasingCell>> cells;
};

// ---------------------------------------------------------------- serve

constexpr u64 serveTenants = 4096;
constexpr std::size_t serveResident = serveTenants / 8;
constexpr std::size_t serveQuantum = 256;
constexpr std::size_t serveWave = 32;
constexpr const char *serveSpec = "egskew:10:8";

/** Per-tenant cursor into its base trace. */
struct TenantCursor
{
    std::size_t trace = 0;
    std::size_t at = 0;
};

/** The samples @p after holds beyond @p before (same histogram, later). */
Histogram
histogramSince(const Histogram &after, const Histogram &before)
{
    Histogram delta;
    for (const auto &[key, count] : after.sorted()) {
        const u64 prior = before.count(key);
        if (count > prior) {
            delta.sampleN(key, count - prior);
        }
    }
    return delta;
}

/**
 * Percentile of a whole-microsecond histogram, interpolated linearly
 * inside the bucket so it is not stuck on integers.
 */
double
histogramPercentile(const Histogram &histogram, double fraction)
{
    if (histogram.total() == 0) {
        return 0.0;
    }
    const double target =
        fraction * static_cast<double>(histogram.total());
    double below = 0.0;
    for (const auto &[key, count] : histogram.sorted()) {
        const double next = below + static_cast<double>(count);
        if (next >= target) {
            return static_cast<double>(key) +
                (target - below) / static_cast<double>(count);
        }
        below = next;
    }
    return static_cast<double>(histogram.sorted().back().first) + 1.0;
}

/**
 * The serving path: a closed loop (one generator, 32 requests in
 * flight) into a one-shard PredictorPool whose cache holds an eighth
 * of the 4,096 tenants, so most uniform requests restore a BPS1
 * checkpoint. One unit is a block of waves; each wave is a request
 * whose CPU time is sampled.
 */
class ServeWorkload : public Workload
{
  public:
    explicit ServeWorkload(const Config &config)
        : config(config),
          wavesPerUnit(std::max<u64>(
              1, static_cast<u64>(40'000 * config.scale) / serveWave))
    {}

    SetupResult
    setup() override
    {
        SetupResult result;
        traces = generateSuite(config.seed, 0.25 * config.scale, result);
        cursors.assign(serveTenants, TenantCursor());
        for (u64 tenant = 0; tenant < serveTenants; ++tenant) {
            TenantCursor &cursor = cursors[tenant];
            cursor.trace = tenant % traces.size();
            const std::size_t size = traces[cursor.trace].size();
            cursor.at = size > serveQuantum
                ? (tenant * 7919) % (size - serveQuantum)
                : 0;
        }
        sampled.clear();
        for (const u64 rank : {1, 4, 16, 64}) {
            sampled[rank * 7919 % serveTenants];
        }
        for (u64 k = 0; sampled.size() < 16; ++k) {
            sampled[((k * serveTenants) / 12 + 3) % serveTenants];
        }
        submittedRequests = 0;
        submittedRecords = 0;
        traffic = Rng(0x1997 ^ config.seed);

        PredictorPool::Options options;
        options.shards = workerThreads;
        options.tenantCapacity = serveResident / workerThreads;
        pool = std::make_unique<PredictorPool>(parseSpec(serveSpec),
                                               options);
        // Cold sweep: every tenant exists (and is checkpointed)
        // before any timed traffic.
        for (u64 tenant = 0; tenant < serveTenants; ++tenant) {
            submitOne(tenant);
        }
        pool->drain();
        return result;
    }

    void
    release() override
    {
        pool.reset();
        traces.clear();
    }

    bool digestRepeats() const override { return false; }

    std::size_t unitCount() const override { return 1; }

    UnitResult
    runUnit(std::size_t) override
    {
        UnitResult unit;
        repStart = {pool->counters(), pool->requestLatencyUs(),
                    pool->checkpointRestoreLatencyUs(),
                    pool->checkpointSaveLatencyUs()};
        const PoolCounters &before = repStart.counters;
        unit.latenciesMs.reserve(wavesPerUnit);
        try {
            for (u64 wave = 0; wave < wavesPerUnit; ++wave) {
                TRACE_SCOPE("bench", "serve.wave");
                const double started = cpuSeconds();
                for (std::size_t i = 0; i < serveWave; ++i) {
                    TRACE_SCOPE("bench", "serve.submit");
                    unit.work +=
                        submitOne(i % 2 == 0 ? hotTenant() : coldTenant());
                }
                {
                    TRACE_SCOPE("bench", "serve.drain");
                    pool->drain();
                }
                unit.latenciesMs.push_back(1e3 * (cpuSeconds() - started));
            }
        } catch (const std::exception &error) {
            warn(std::string("serve: ") + error.what());
            ++unit.errors;
        }
        const PoolCounters after = pool->counters();
        unit.operations = wavesPerUnit * serveWave;
        unit.references =
            static_cast<double>(after.conditionals - before.conditionals);
        unit.missed =
            static_cast<double>(after.mispredicts - before.mispredicts);
        if (after.requests - before.requests != unit.operations) {
            ++unit.errors;
        }
        return unit;
    }

    /** 16 sampled tenants replayed on dedicated predictors through
     * split predict()/update(): tallies and snapshot bytes must
     * match the pooled tenant's. */
    void
    verify(Verdict &verdict) override
    {
        const PoolCounters totals = pool->counters();
        verdict.check(totals.requests == submittedRequests &&
                          totals.records == submittedRecords,
                      "serve: pool totals differ from traffic submitted");
        for (const auto &[tenant, requests] : sampled) {
            auto dedicated = makePredictor(serveSpec);
            TenantSummary reference;
            for (const PredictRequest &request : requests) {
                const SimResult part = splitReference(
                    *dedicated, request.records, request.count);
                ++reference.requests;
                reference.conditionals += part.conditionals;
                reference.mispredicts += part.mispredicts;
            }
            const TenantSummary pooled = pool->tenantSummary(tenant);
            std::ostringstream bytes;
            savePredictorState(*dedicated, bytes);
            verdict.check(pooled.requests == reference.requests &&
                              pooled.conditionals ==
                                  reference.conditionals &&
                              pooled.mispredicts == reference.mispredicts &&
                              pool->exportTenant(tenant) == bytes.str(),
                          "serve: tenant " + std::to_string(tenant) +
                              " differs from a dedicated predictor");
        }
    }

    /** Bench-side call times from the traced pass's spans; the pool's
     * own histograms and cache counters over that pass. */
    void
    layers(const SpanReport &spans, std::vector<Measurement> &out) override
    {
        const auto micros = [](std::vector<double> seconds) {
            for (double &value : seconds) {
                value *= 1e6;
            }
            return summarize(std::move(seconds));
        };
        out.push_back({"serve.submit_us_p99",
                       micros(spans.merged("bench/serve.submit").durations)
                           .p99,
                       "us"});
        out.push_back({"serve.drain_us_p50",
                       micros(spans.merged("bench/serve.drain").durations)
                           .median,
                       "us"});
        out.push_back(
            {"serve.wave_self_us",
             micros(spans.merged("bench/serve.wave").selfDurations).median,
             "us"});
        for (const auto &[name, after, before] :
             {std::tuple{"request", pool->requestLatencyUs(),
                         repStart.request},
              std::tuple{"restore", pool->checkpointRestoreLatencyUs(),
                         repStart.restore},
              std::tuple{"save", pool->checkpointSaveLatencyUs(),
                         repStart.save}}) {
            const Histogram during = histogramSince(after, before);
            const std::string prefix = std::string("serve.") + name;
            out.push_back({prefix + "_us_p50",
                           histogramPercentile(during, 0.5), "us"});
            out.push_back({prefix + "_us_p99",
                           histogramPercentile(during, 0.99), "us"});
        }
        const PoolCounters now = pool->counters();
        const u64 requests = now.requests - repStart.counters.requests;
        out.push_back({"serve.cache_hit_frac",
                       requests == 0
                           ? 0.0
                           : static_cast<double>(
                                 now.cache.hits -
                                 repStart.counters.cache.hits) /
                               static_cast<double>(requests),
                       "fraction"});
    }

  private:
    /** Submit @p tenant's next slice; returns its record count. */
    std::size_t
    submitOne(u64 tenant)
    {
        TenantCursor &cursor = cursors[tenant];
        const Trace &trace = traces[cursor.trace];
        if (cursor.at >= trace.size()) {
            cursor.at = 0;
        }
        PredictRequest request;
        request.tenant = tenant;
        request.records = trace.records().data() + cursor.at;
        request.count = std::min(serveQuantum, trace.size() - cursor.at);
        cursor.at += request.count;
        pool->submit(request);
        ++submittedRequests;
        submittedRecords += request.count;
        const auto sample = sampled.find(tenant);
        if (sample != sampled.end()) {
            sample->second.push_back(request);
        }
        return request.count;
    }

    /** Zipf(1.2) rank r maps to tenant r*7919 mod T, so popular
     * tenants spread over both shards. */
    u64
    hotTenant()
    {
        return traffic.zipf(serveTenants, 1.2) * 7919 % serveTenants;
    }

    u64 coldTenant() { return traffic.uniformInt(serveTenants); }

    Config config;
    u64 wavesPerUnit;
    std::vector<Trace> traces;
    std::vector<TenantCursor> cursors;
    std::map<u64, std::vector<PredictRequest>> sampled;
    u64 submittedRequests = 0;
    u64 submittedRecords = 0;
    Rng traffic;
    std::unique_ptr<PredictorPool> pool;

    /** Pool state when the last unit run started. */
    struct PoolState
    {
        PoolCounters counters;
        Histogram request;
        Histogram restore;
        Histogram save;
    } repStart;
};

} // namespace

void
Verdict::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (failures.size() < 8) {
            failures.push_back(what);
        }
    }
}

void
Verdict::tally(u64 count, u64 failedCount, const std::string &what)
{
    attempted += count;
    failed += failedCount;
    if (failedCount > 0 && failures.size() < 8) {
        failures.push_back(what);
    }
}

std::unique_ptr<Predictor>
makeSweepDesign(unsigned design, unsigned bits)
{
    switch (design) {
      case 0: // fig5: gshare-N, h=4
        return std::make_unique<GSharePredictor>(bits, 4);
      case 1: // fig5: gskewed 3x(N/4), h=4
        return std::make_unique<SkewedPredictor>(
            3, bits - 2, 4, UpdatePolicy::Partial);
      case 2: // fig5: gskewed 3xN, h=4
        return std::make_unique<SkewedPredictor>(
            3, bits, 4, UpdatePolicy::Partial);
      case 3: // fig6/12: gshare-N, h=12
        return std::make_unique<GSharePredictor>(bits, 12);
      default: // fig6/12: e-gskew 3x(N/4), h=12
        return std::make_unique<SkewedPredictor>(
            makeEnhancedConfig(bits - 2, 12));
    }
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"sweep", "corpus",
                                                   "aliasing", "serve"};
    return names;
}

const std::vector<std::string> &
corpusSpecs()
{
    static const std::vector<std::string> specs = {
        "gshare:12:10", "gskewed:3:11:8", "egskew:11:8"};
    return specs;
}

std::unique_ptr<Workload>
makeWorkload(const Config &config)
{
    if (config.workload == "sweep") {
        return std::make_unique<SweepWorkload>(config);
    }
    if (config.workload == "corpus") {
        return std::make_unique<CorpusWorkload>(config);
    }
    if (config.workload == "aliasing") {
        return std::make_unique<AliasingWorkload>(config);
    }
    if (config.workload == "serve") {
        return std::make_unique<ServeWorkload>(config);
    }
    return nullptr;
}

} // namespace bench_e2e
