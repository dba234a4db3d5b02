/**
 * @file
 * bench_e2e — the repository's end-to-end benchmark.
 *
 * One workload per process, so peak RSS belongs to that workload:
 *
 *   bench_e2e --workload sweep|corpus|aliasing|serve [--seed <n>]
 *             [--reps <n>] [--seconds <s>] [--scale <x>] [--traced]
 *             [--json <path>] [--tmp <dir>]
 *
 * A run sets the workload up three times (setup_s is the median),
 * runs its first unit once untimed as a warm-up, then runs the units
 * round-robin until every unit has --reps timed runs and --seconds
 * of wall time have passed. Every set-up and unit run is timed on
 * the process CPU clock, so time the host gives other processes does
 * not count, and is scaled by the reference kernel run just before
 * it, so neither does the slowdown co-tenants on the same core
 * cause; each unit is then summarised by its median. Every run of a
 * unit must reproduce the digest of its first run, and each workload
 * then checks its results against an independent reference path;
 * any failure makes the exit status 1.
 *
 * --traced adds one pass over all units under the span recorder
 * (self time per span, share no layer covers, overhead against the
 * untraced medians) from which the workload reports its layer
 * metrics. So that every traced run reports the whole per-layer
 * catalogue, each other workload is then set up once, warmed and
 * traced the same way for its own layer metrics, and the layer
 * probes run last.
 *
 * Every metric prints as
 *   <workload> <metric> <value> <unit> (median, q1, q3, n)
 * and the --json file holds the same numbers plus the host/build
 * fingerprint; compare.py diffs two directories of such files.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

#include "e2e.hh"
#include "support/logging.hh"
#include "support/memmeter.hh"
#include "support/parse.hh"
#include "support/tracing.hh"

using namespace bench_e2e;
using bpred::JsonValue;

namespace
{

/** Reference-kernel CPU seconds on an uncontended core of the 4-vCPU
 * VM the baseline was measured on. */
constexpr double referenceKernelSeconds = 0.030;

/**
 * The reference kernel: a fixed miniature of the workloads' hot loop.
 * One synthetic stream of 1M branches updates eight gshare-like
 * tables of 128K two-bit counters, 1 MiB in all, about a sweep gang's
 * tables and L2-resident like them. On a shared host, co-tenants on
 * the same core slow such code by up to 2x for minutes at a time, and
 * the CPU clock counts that slowdown. The kernel is benchmark code,
 * the same in every build compared, so its CPU time tracks only the
 * host: a timing multiplied by referenceKernelSeconds over the
 * kernel's time just before it is the timing on an uncontended core.
 * Returns that factor.
 */
double
hostScale()
{
    constexpr u64 members = 8;
    constexpr unsigned tableBits = 17;
    constexpr u64 mask = (u64(1) << tableBits) - 1;
    static std::vector<unsigned char> tables(members << tableBits);
    static volatile u64 sink = 0;
    const double started = cpuSeconds();
    u64 x = 0x1234567ULL;
    u64 history = 0;
    u64 mispredicts = 0;
    for (u64 i = 0; i < 1'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const u64 pc = (x >> 3) & 0xfff;
        const bool taken = ((x >> 40) & 1) != 0;
        for (u64 m = 0; m < members; ++m) {
            const u64 index = ((pc * 0x9e37) ^ (history << m)) & mask;
            unsigned char &counter = tables[(m << tableBits) | index];
            mispredicts += (counter >= 2) != taken ? 1 : 0;
            counter = static_cast<unsigned char>(
                taken ? (counter < 3 ? counter + 1 : 3)
                      : (counter > 0 ? counter - 1 : 0));
        }
        history = history << 1 | (taken ? 1 : 0);
    }
    sink = sink + mispredicts;
    return referenceKernelSeconds / (cpuSeconds() - started);
}

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "bench_e2e: " << problem << "\n"
              << "usage: bench_e2e --workload "
                 "sweep|corpus|aliasing|serve [--seed <n>]\n"
              << "         [--reps <n>] [--seconds <s>] [--scale <x>] "
                 "[--traced]\n"
              << "         [--json <path>] [--tmp <dir>]\n";
    std::exit(2);
}

Config
parseArgs(int argc, char **argv)
{
    Config config;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(arg + " needs a value");
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            config.workload = value();
        } else if (arg == "--seed") {
            config.seed = bpred::parseU64(value(), "--seed");
        } else if (arg == "--reps") {
            config.reps =
                static_cast<unsigned>(bpred::parseU64(value(), "--reps"));
        } else if (arg == "--seconds") {
            config.seconds = bpred::parseDouble(value(), "--seconds");
        } else if (arg == "--scale") {
            config.scale = bpred::parseDouble(value(), "--scale");
        } else if (arg == "--traced") {
            config.traced = true;
        } else if (arg == "--json") {
            config.jsonPath = value();
        } else if (arg == "--tmp") {
            config.tmpDir = value();
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (config.workload.empty()) {
        usage("--workload is required");
    }
    if (config.reps == 0 || !(config.scale > 0.0) ||
        !(config.seconds >= 0.0)) {
        usage("--reps must be positive, --scale > 0, --seconds >= 0");
    }
    if (config.tmpDir.empty()) {
        config.tmpDir = "bench_e2e_tmp";
    }
    return config;
}

Metric
metricOf(const std::string &name, const std::string &unit,
         const std::vector<double> &samples)
{
    Metric metric{name, unit, 0.0, summarize(samples)};
    metric.value = metric.summary.median;
    return metric;
}

void
printMetric(const std::string &workload, const Metric &metric)
{
    std::printf("%s %s %.6g %s (median %.6g, q1 %.6g, q3 %.6g, n %zu)\n",
                workload.c_str(), metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.summary.median,
                metric.summary.q1, metric.summary.q3, metric.summary.n);
}

/**
 * Counts every unit run into the verdict and holds each unit's first
 * digest, which every later run of that unit must reproduce.
 */
class UnitChecker
{
  public:
    UnitChecker(const Workload &workload, Verdict &verdict)
        : workload(workload), verdict(verdict),
          digests(workload.unitCount())
    {}

    void
    record(std::size_t unit, const UnitResult &result, const char *phase)
    {
        const std::string what =
            std::string(phase) + " run of unit " + std::to_string(unit);
        verdict.tally(result.operations, result.errors, what + " errored");
        if (!workload.digestRepeats()) {
            return;
        }
        if (!digests[unit]) {
            digests[unit] = result.digest;
        } else {
            verdict.check(result.digest == *digests[unit],
                          what + ": digest differs from its first run");
        }
    }

  private:
    const Workload &workload;
    Verdict &verdict;
    std::vector<std::optional<u64>> digests;
};

/**
 * One pass over every unit of @p workload under the span recorder,
 * checked like the timed runs; @p cpu receives its CPU seconds,
 * scaled like theirs.
 */
SpanReport
tracedPass(Workload &workload, UnitChecker &checker, Verdict &verdict,
           double &cpu)
{
    bpred::trace::reset();
    bpred::trace::setEnabled(true);
    bpred::trace::setThreadName("main");
    const double scale = hostScale();
    const double started = cpuSeconds();
    {
        TRACE_SCOPE("bench", "rep");
        for (std::size_t unit = 0; unit < workload.unitCount(); ++unit) {
            checker.record(unit, workload.runUnit(unit), "traced");
        }
    }
    cpu = (cpuSeconds() - started) * scale;
    bpred::trace::setEnabled(false);
    verdict.check(bpred::trace::droppedCount() == 0,
                  "span recorder dropped events");
    SpanReport spans = analyzeSpans();
    bpred::trace::reset();
    return spans;
}

JsonValue
metricJson(const Metric &metric)
{
    JsonValue node = JsonValue::object();
    node["value"] = metric.value;
    node["unit"] = metric.unit;
    node["median"] = metric.summary.median;
    node["q1"] = metric.summary.q1;
    node["q3"] = metric.summary.q3;
    node["n"] = static_cast<bpred::u64>(metric.summary.n);
    return node;
}

JsonValue
arrayOf(const std::vector<double> &values)
{
    JsonValue node = JsonValue::array();
    for (const double value : values) {
        node.push(value);
    }
    return node;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config config = parseArgs(argc, argv);
    std::unique_ptr<Workload> workload = makeWorkload(config);
    if (!workload) {
        usage("unknown workload '" + config.workload + "'");
    }
    const std::string &name = config.workload;

    try {
        std::filesystem::create_directories(config.tmpDir);
        hostScale(); // fault the kernel's table in, untimed

        std::vector<double> setupSeconds;
        std::vector<double> generateRates;
        for (unsigned i = 0; i < setupRuns; ++i) {
            if (i > 0) {
                workload->release();
            }
            const double scale = hostScale();
            const double started = cpuSeconds();
            const SetupResult setup = workload->setup();
            setupSeconds.push_back((cpuSeconds() - started) * scale);
            generateRates.push_back(
                static_cast<double>(setup.generatedRecords) /
                setup.generateSeconds / 1e6);
        }

        Verdict verdict;
        UnitChecker checker(*workload, verdict);
        const std::size_t units = workload->unitCount();
        checker.record(0, workload->runUnit(0), "warm-up");

        // Round-robin over the units, so a slow host phase lands on
        // every unit alike; each unit keeps its own samples, in
        // scaled CPU seconds.
        std::vector<std::vector<double>> unitTime(units);
        std::vector<std::vector<double>> unitCpu(units);
        std::vector<std::vector<double>> unitWall(units);
        std::vector<std::vector<double>> unitScale(units);
        std::vector<u64> unitWork(units, 0);
        std::vector<double> waves;
        double missed = 0.0;
        double references = 0.0;
        const auto budget = std::chrono::steady_clock::now();
        const double budgetCpu = cpuSeconds();
        for (std::size_t unit = 0;; unit = (unit + 1) % units) {
            if (unitTime.back().size() >= config.reps &&
                secondsSince(budget) >= config.seconds) {
                break;
            }
            const double scale = hostScale();
            const auto wallStart = std::chrono::steady_clock::now();
            const double cpuStart = cpuSeconds();
            const UnitResult result = workload->runUnit(unit);
            const double cpu = cpuSeconds() - cpuStart;
            unitWall[unit].push_back(secondsSince(wallStart));
            unitCpu[unit].push_back(cpu);
            unitScale[unit].push_back(scale);
            unitTime[unit].push_back(cpu * scale);
            checker.record(unit, result, "timed");
            if (unitTime[unit].size() == 1) {
                // One pass's work and simulated result.
                unitWork[unit] = result.work;
                missed += result.missed;
                references += result.references;
            }
            for (const double ms : result.latenciesMs) {
                waves.push_back(ms * scale);
            }
        }
        const double timedWall = secondsSince(budget);
        const double timedCpu = cpuSeconds() - budgetCpu;
        const double peakRssMb =
            static_cast<double>(bpred::processMemUsage().rssPeakBytes) /
            (1024.0 * 1024.0);

        // A pass's work over the sum of the units' median times; the
        // quartiles compose the units' quartiles the same way.
        std::vector<Summary> unitSummaries;
        double passWork = 0.0;
        double passTime = 0.0;
        double passQ1 = 0.0;
        double passQ3 = 0.0;
        std::size_t samples = 0;
        std::vector<double> scales;
        for (std::size_t unit = 0; unit < units; ++unit) {
            unitSummaries.push_back(summarize(unitTime[unit]));
            passWork += static_cast<double>(unitWork[unit]);
            passTime += unitSummaries.back().median;
            passQ1 += unitSummaries.back().q1;
            passQ3 += unitSummaries.back().q3;
            samples += unitTime[unit].size();
            scales.insert(scales.end(), unitScale[unit].begin(),
                          unitScale[unit].end());
        }
        std::vector<Metric> metrics;
        Metric throughput{"throughput_mrec_s", "Mrec/s", 0.0, {}};
        throughput.value = passWork / passTime / 1e6;
        throughput.summary.median = throughput.value;
        throughput.summary.q1 = passWork / passQ3 / 1e6;
        throughput.summary.q3 = passWork / passQ1 / 1e6;
        throughput.summary.n = samples;
        metrics.push_back(throughput);

        // Requests timed inside the units (serve waves, aliasing
        // jobs); elsewhere a unit is the request, timed by its median.
        std::vector<double> requestMs = waves;
        if (requestMs.empty()) {
            for (const Summary &unit : unitSummaries) {
                requestMs.push_back(1e3 * unit.median);
            }
        }
        metrics.push_back(metricOf("latency_p50_ms", "ms", requestMs));
        Metric tail = metricOf("latency_p90_ms", "ms", requestMs);
        tail.value = tail.summary.p90;
        metrics.push_back(tail);
        metrics.push_back(metricOf("setup_s", "s", setupSeconds));
        metrics.push_back(metricOf("peak_rss_mb", "MB", {peakRssMb}));

        std::vector<Measurement> layers;
        SpanReport spans;
        if (config.traced) {
            double tracedCpu = 0.0;
            spans = tracedPass(*workload, checker, verdict, tracedCpu);
            layers.push_back({"workloads.generate_mrec_s",
                              summarize(generateRates).median, "Mrec/s"});
            workload->layers(spans, layers);
            layers.push_back({"span.rep_s", spans.repSeconds, "s"});
            layers.push_back(
                {"span.uncovered_frac", spans.uncoveredFraction,
                 "fraction"});
            layers.push_back({"span.trace_overhead_frac",
                              tracedCpu / passTime - 1.0, "fraction"});
        }
        workload->verify(verdict);
        workload->release();

        if (config.traced) {
            for (const std::string &other : workloadNames()) {
                if (other == name) {
                    continue;
                }
                Config otherConfig = config;
                otherConfig.workload = other;
                const std::unique_ptr<Workload> peer =
                    makeWorkload(otherConfig);
                peer->setup();
                UnitChecker peerChecker(*peer, verdict);
                peerChecker.record(0, peer->runUnit(0),
                                   (other + " warm-up").c_str());
                double ignored = 0.0;
                peer->layers(tracedPass(*peer, peerChecker, verdict, ignored),
                             layers);
                peer->verify(verdict);
                peer->release();
            }
            for (Measurement &probe : runLayerProbes(config, verdict)) {
                layers.push_back(std::move(probe));
            }
        }

        // Exact-match companions: the simulated result and failures.
        const double failedFrac = verdict.attempted == 0
            ? 0.0
            : static_cast<double>(verdict.failed) /
                static_cast<double>(verdict.attempted);
        metrics.push_back(
            metricOf("failed_frac", "fraction", {failedFrac}));
        metrics.push_back(metricOf(
            "sim_miss_pct", "%",
            {references == 0.0 ? 0.0 : 100.0 * missed / references}));

        for (const Metric &metric : metrics) {
            printMetric(name, metric);
        }
        for (const Measurement &layer : layers) {
            std::printf("%s %s %.6g %s\n", name.c_str(),
                        layer.name.c_str(), layer.value,
                        layer.unit.c_str());
        }
        const Summary scale = summarize(scales);
        std::printf("%s timed part: %.2f s wall, %.2f s CPU, %zu unit "
                    "runs, host scale %.3f (q1 %.3f, q3 %.3f)\n",
                    name.c_str(), timedWall, timedCpu, samples,
                    scale.median, scale.q1, scale.q3);
        if (config.traced) {
            std::printf("\n%-8s %-32s %8s %10s %10s %7s\n", "lane",
                        "span", "count", "total s", "self s", "share");
            for (const SpanRow &row : spans.rows) {
                std::printf("%-8s %-32s %8llu %10.4f %10.4f %6.1f%%\n",
                            row.lane.c_str(), row.span.c_str(),
                            static_cast<unsigned long long>(row.count),
                            row.totalSeconds, row.selfSeconds,
                            100.0 * row.selfSeconds / spans.repSeconds);
            }
        }
        for (const std::string &failure : verdict.failures) {
            std::fprintf(stderr, "bench_e2e: FAIL: %s\n",
                         failure.c_str());
        }

        if (!config.jsonPath.empty()) {
            JsonValue root = JsonValue::object();
            root["workload"] = name;
            root["seed"] = config.seed;
            root["seconds"] = config.seconds;
            root["traced"] = config.traced;
            root["fingerprint"] = fingerprint(config);
            root["correct"] = verdict.failed == 0;
            root["attempted"] = verdict.attempted;
            root["failed"] = verdict.failed;
            JsonValue failures = JsonValue::array();
            for (const std::string &failure : verdict.failures) {
                failures.push(failure);
            }
            root["failures"] = std::move(failures);
            root["timed_wall_s"] = timedWall;
            root["timed_cpu_s"] = timedCpu;
            JsonValue unitNode = JsonValue::array();
            for (std::size_t unit = 0; unit < units; ++unit) {
                JsonValue node = JsonValue::object();
                node["work"] = unitWork[unit];
                node["time_s"] = arrayOf(unitTime[unit]);
                node["cpu_s"] = arrayOf(unitCpu[unit]);
                node["host_scale"] = arrayOf(unitScale[unit]);
                node["wall_s"] = arrayOf(unitWall[unit]);
                unitNode.push(std::move(node));
            }
            root["units"] = std::move(unitNode);
            root["latency_samples"] =
                static_cast<bpred::u64>(requestMs.size());
            JsonValue metricNode = JsonValue::object();
            for (const Metric &metric : metrics) {
                metricNode[metric.name] = metricJson(metric);
            }
            root["metrics"] = std::move(metricNode);
            if (config.traced) {
                JsonValue layerNode = JsonValue::object();
                for (const Measurement &layer : layers) {
                    JsonValue node = JsonValue::object();
                    node["value"] = layer.value;
                    node["unit"] = layer.unit;
                    layerNode[layer.name] = std::move(node);
                }
                root["layers"] = std::move(layerNode);
                JsonValue spanNode = JsonValue::array();
                for (const SpanRow &row : spans.rows) {
                    JsonValue node = JsonValue::object();
                    node["lane"] = row.lane;
                    node["span"] = row.span;
                    node["count"] = row.count;
                    node["total_s"] = row.totalSeconds;
                    node["self_s"] = row.selfSeconds;
                    spanNode.push(std::move(node));
                }
                root["spans"] = std::move(spanNode);
            }
            std::ofstream os(config.jsonPath);
            root.write(os, 2);
            os << "\n";
            if (!os) {
                bpred::fatal("cannot write '" + config.jsonPath + "'");
            }
        }

        std::error_code ignored;
        std::filesystem::remove(config.tmpDir, ignored); // only if empty
        return verdict.failed == 0 ? 0 : 1;
    } catch (const std::exception &error) {
        std::cerr << "bench_e2e: " << name << ": " << error.what()
                  << "\n";
        return 1;
    }
}
