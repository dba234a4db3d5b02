#include "bench_common.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "sim/factory.hh"
#include "sim/gang.hh"
#include "sim/parallel.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/memmeter.hh"
#include "support/tracing.hh"
#include "workloads/presets.hh"

namespace bpred::bench
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Accumulated `--json` report state for this bench binary. */
struct Report
{
    std::string benchName = "bench";
    std::string jsonPath;
    std::string tracePath;
    std::string statsPath;
    unsigned requestedThreads = 0;
    std::size_t blockRecords = defaultReplayBlockRecords;
    Clock::time_point start = Clock::now();
    JsonValue sections = JsonValue::object();

    /** Extra top-level document fields (recordReportField). */
    std::vector<std::pair<std::string, JsonValue>> extra;
};

Report &
report()
{
    static Report instance;
    return instance;
}

/** The report node for @p section, created on first use. */
JsonValue &
sectionNode(const std::string &section)
{
    JsonValue &node = report().sections[section];
    if (node.isNull()) {
        node = JsonValue::object();
    }
    return node;
}

std::string
basenameOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/** Toolchain identity baked into every `--json` report header. */
std::string
compilerVersion()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/**
 * Build provenance for the report header. The git SHA, build type
 * and flag summary are stamped into bench_common at configure time
 * (bench/CMakeLists.txt); the compiler string comes from the
 * compiler itself, so artifacts stay attributable even when the
 * tree was dirty or CMake cached a stale SHA.
 */
JsonValue
buildMetadata()
{
    JsonValue node = JsonValue::object();
#if defined(BPRED_GIT_SHA)
    node["git_sha"] = std::string(BPRED_GIT_SHA);
#else
    node["git_sha"] = std::string("unknown");
#endif
    node["compiler"] = compilerVersion();
#if defined(BPRED_BUILD_TYPE)
    node["build_type"] = std::string(BPRED_BUILD_TYPE);
#else
    node["build_type"] = std::string("unknown");
#endif
#if defined(BPRED_CMAKE_FLAGS)
    node["cmake_flags"] = std::string(BPRED_CMAKE_FLAGS);
#else
    node["cmake_flags"] = std::string("");
#endif
    return node;
}

/** Process memory footprint for report headers and --stats-out. */
JsonValue
memoryMetadata()
{
    JsonValue node = JsonValue::object();
    const MemUsage usage = processMemUsage();
    node["rss_bytes"] = u64(usage.valid ? usage.rssBytes : 0);
    node["rss_peak_bytes"] =
        u64(usage.valid ? usage.rssPeakBytes : 0);
    node["tracked_alloc_bytes"] = u64(AllocGauge::current());
    node["tracked_alloc_peak_bytes"] = u64(AllocGauge::peak());
    return node;
}

/**
 * Dump the process-wide engine metrics (sweep pool accounting,
 * session feed phases — support/stat_registry.hh engineStats())
 * plus the memory footprint to the `--stats-out` path. Returns
 * false on I/O failure.
 */
bool
writeStatsOut(const std::string &path)
{
    JsonValue document = JsonValue::object();
    document["bench"] = report().benchName;
    {
        std::lock_guard<std::mutex> hold(engineStatsMutex());
        document["engine"] = engineStats().toJson();
    }
    document["memory"] = memoryMetadata();
    document["trace_events"] = u64(trace::eventCount());
    document["trace_dropped"] = u64(trace::droppedCount());
    std::ofstream out(path);
    if (!out) {
        warn("--stats-out: cannot open '" + path + "' for writing");
        return false;
    }
    document.write(out, 2);
    out << "\n";
    if (!out.good()) {
        warn("--stats-out: write to '" + path + "' failed");
        return false;
    }
    inform("wrote engine stats to " + path);
    return true;
}

} // namespace

namespace
{

[[noreturn]] void
usage(const std::string &offending)
{
    // CLI surface: report usage and exit instead of throwing
    // through main() into std::terminate.
    std::fprintf(stderr,
                 "usage: %s [--json <path>] [--threads <n>] "
                 "[--block-size <records>] [--trace-out <path>] "
                 "[--stats-out <path>] (got '%s')\n",
                 report().benchName.c_str(), offending.c_str());
    std::exit(2);
}

unsigned
parseThreads(const std::string &value)
{
    try {
        const unsigned long parsed = std::stoul(value);
        if (parsed >= 1 && parsed <= 4096) {
            return static_cast<unsigned>(parsed);
        }
    } catch (const std::exception &) {
        // fall through to usage
    }
    usage("--threads " + value);
}

std::size_t
parseBlockSize(const std::string &value)
{
    try {
        const unsigned long parsed = std::stoul(value);
        if (parsed >= 1 && parsed <= (1ul << 24)) {
            return static_cast<std::size_t>(parsed);
        }
    } catch (const std::exception &) {
        // fall through to usage
    }
    usage("--block-size " + value);
}

} // namespace

namespace
{

void
initImpl(int argc, char **argv, std::vector<std::string> *extra)
{
    if (argc > 0) {
        report().benchName = basenameOf(argv[0]);
    }
    report().start = Clock::now();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            report().jsonPath = argv[++i];
        } else if (arg.rfind("--json=", 0) == 0) {
            report().jsonPath = arg.substr(7);
        } else if (arg == "--threads" && i + 1 < argc) {
            report().requestedThreads = parseThreads(argv[++i]);
        } else if (arg.rfind("--threads=", 0) == 0) {
            report().requestedThreads =
                parseThreads(arg.substr(10));
        } else if (arg == "--block-size" && i + 1 < argc) {
            report().blockRecords = parseBlockSize(argv[++i]);
        } else if (arg.rfind("--block-size=", 0) == 0) {
            report().blockRecords =
                parseBlockSize(arg.substr(13));
        } else if (arg == "--trace-out" && i + 1 < argc) {
            report().tracePath = argv[++i];
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            report().tracePath = arg.substr(12);
        } else if (arg == "--stats-out" && i + 1 < argc) {
            report().statsPath = argv[++i];
        } else if (arg.rfind("--stats-out=", 0) == 0) {
            report().statsPath = arg.substr(12);
        } else if (extra != nullptr) {
            extra->push_back(arg);
        } else {
            usage(arg);
        }
    }
    if (!report().tracePath.empty()) {
        trace::setEnabled(true);
        trace::setThreadName("main");
    }
}

} // namespace

void
init(int argc, char **argv)
{
    initImpl(argc, argv, nullptr);
}

std::vector<std::string>
initWithExtraArgs(int argc, char **argv)
{
    std::vector<std::string> extra;
    initImpl(argc, argv, &extra);
    return extra;
}

bool
jsonEnabled()
{
    return !report().jsonPath.empty();
}

unsigned
sweepThreads()
{
    return report().requestedThreads;
}

std::size_t
blockRecords()
{
    return report().blockRecords;
}

const std::vector<Trace> &
suite()
{
    static const std::vector<Trace> traces = [] {
        const double scale = effectiveTraceScale(defaultScale);
        std::cout << "[suite] generating 6 IBS-like traces at scale "
                  << scale << " (set BPRED_TRACE_SCALE to change, "
                  << "BPRED_TRACE_CACHE to cache)\n";
        TRACE_SCOPE("tracegen", "ibs-suite");
        return ibsSuite(defaultScale);
    }();
    return traces;
}

void
banner(const std::string &artifact, const std::string &claim)
{
    std::cout << "====================================================\n"
              << "Reproducing " << artifact << "\n"
              << claim << "\n"
              << "====================================================\n";
}

void
expectation(const std::string &text)
{
    std::cout << "\n[paper shape] " << text << "\n";
}

void
recordReportField(const std::string &key, JsonValue value)
{
    if (!jsonEnabled()) {
        return;
    }
    for (auto &[existing, stored] : report().extra) {
        if (existing == key) {
            stored = std::move(value);
            return;
        }
    }
    report().extra.emplace_back(key, std::move(value));
}

void
emitTable(const std::string &section, const TextTable &table)
{
    table.print(std::cout);
    if (jsonEnabled()) {
        sectionNode(section)["tables"].push(table.toJson());
    }
}

void
emitResult(const std::string &section, const std::string &name,
           const SimResult &result)
{
    if (jsonEnabled()) {
        sectionNode(section)["results"][name] = result.toJson();
    }
}

void
emitStats(const std::string &section, const std::string &name,
          const StatRegistry &stats)
{
    if (jsonEnabled()) {
        sectionNode(section)["stats"][name] = stats.toJson();
    }
}

int
finish()
{
    int status = 0;
    // Trace first: the export quiesce point is here, after every
    // SweepRunner::run() has joined its pool.
    if (!report().tracePath.empty()) {
        trace::setEnabled(false);
        if (trace::writeChromeTrace(report().tracePath)) {
            inform("wrote trace (" +
                   std::to_string(trace::eventCount()) +
                   " events) to " + report().tracePath);
        } else {
            warn("--trace-out: write to '" + report().tracePath +
                 "' failed");
            status = 1;
        }
    }
    if (!report().statsPath.empty() &&
        !writeStatsOut(report().statsPath)) {
        status = 1;
    }
    if (!jsonEnabled()) {
        return status;
    }
    JsonValue document = JsonValue::object();
    document["bench"] = report().benchName;
    document["build"] = buildMetadata();
    document["memory"] = memoryMetadata();
    document["trace_scale"] = effectiveTraceScale(defaultScale);
    document["threads"] =
        u64(resolveThreadCount(report().requestedThreads));
    document["block_size"] = u64(report().blockRecords);
    for (const auto &[key, value] : report().extra) {
        document[key] = value;
    }
    document["elapsed_seconds"] =
        std::chrono::duration<double>(Clock::now() - report().start)
            .count();
    document["sections"] = report().sections;
    std::ofstream out(report().jsonPath);
    if (!out) {
        warn("--json: cannot open '" + report().jsonPath +
             "' for writing");
        return 1;
    }
    document.write(out, 2);
    out << "\n";
    if (!out.good()) {
        warn("--json: write to '" + report().jsonPath + "' failed");
        return 1;
    }
    inform("wrote JSON report to " + report().jsonPath);
    return status;
}

double
mispredictPercent(const std::string &spec, const Trace &trace)
{
    auto predictor = makePredictor(spec);
    return simulate(*predictor, trace).mispredictPercent();
}

double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

} // namespace bpred::bench
