/**
 * @file
 * Statistics, the host/build fingerprint and span self-time
 * analysis for bench_e2e.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "e2e.hh"
#include "support/simd.hh"
#include "support/tracing.hh"

namespace bench_e2e
{

using namespace bpred;

Summary
summarize(std::vector<double> values)
{
    Summary summary;
    summary.n = values.size();
    if (values.empty()) {
        return summary;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    summary.median = n % 2 == 1
        ? values[n / 2]
        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
    const auto nearestRank = [&](double fraction) {
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(fraction * static_cast<double>(n)));
        return values[std::max<std::size_t>(rank, 1) - 1];
    };
    summary.p90 = nearestRank(0.90);
    summary.p99 = nearestRank(0.99);
    if (n == 1) {
        summary.q1 = summary.q3 = values.front();
        return summary;
    }
    // statistics.quantiles(values, n=4), method="exclusive".
    const auto quartile = [&](std::size_t i) {
        const std::size_t m = n + 1;
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, n - 1);
        const double delta = static_cast<double>(i * m) -
            static_cast<double>(j * 4);
        return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    };
    summary.q1 = quartile(1);
    summary.q3 = quartile(3);
    return summary;
}

namespace
{

/** First line of @p path; empty when it cannot be read. */
std::string
firstLine(const std::filesystem::path &path)
{
    std::ifstream is(path);
    std::string line;
    std::getline(is, line);
    return line;
}

/**
 * The checked-out commit, read from the repository's .git at run
 * time (a configure-time value goes stale when one build tree
 * outlives a checkout); "unknown" outside a git checkout.
 */
std::string
gitCommit()
{
    const std::filesystem::path git =
        std::filesystem::path(BENCH_E2E_REPO_ROOT) / ".git";
    std::string head = firstLine(git / "HEAD");
    if (head.rfind("ref: ", 0) == 0) {
        const std::string ref = head.substr(5);
        head = firstLine(git / ref);
        std::ifstream packed(git / "packed-refs");
        for (std::string line; head.empty() && std::getline(packed, line);) {
            if (line.size() > ref.size() &&
                line.compare(line.size() - ref.size(), ref.size(), ref) ==
                    0 &&
                line[line.size() - ref.size() - 1] == ' ') {
                head = line.substr(0, line.find(' '));
            }
        }
    }
    if (head.size() < 12 ||
        head.find_first_not_of("0123456789abcdef") != std::string::npos) {
        return "unknown";
    }
    return head.substr(0, 12);
}

} // namespace

JsonValue
fingerprint(const Config &config)
{
    std::string cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                cpu = line.substr(line.find_first_not_of(" \t", colon + 1));
            }
            break;
        }
    }
    JsonValue node = JsonValue::object();
    node["nproc"] = std::thread::hardware_concurrency();
    node["cpu_model"] = cpu;
    node["compiler"] = BENCH_E2E_COMPILER;
    node["build_type"] = BENCH_E2E_BUILD_TYPE;
    node["simd_build"] = BENCH_E2E_SIMD_BUILD;
    node["simd_mode"] = simdModeName(resolveSimdMode(SimdMode::Auto));
    node["git_sha"] = gitCommit();
    node["worker_threads"] = workerThreads;
    node["clock"] = "process-cpu x reference kernel";
    node["seed"] = config.seed;
    node["scale"] = config.scale;
    return node;
}

SpanReport
analyzeSpans()
{
    struct Open
    {
        const trace::TraceEvent *event;
        u64 endNs;
    };
    std::map<std::pair<std::string, std::string>, SpanRow> rows;
    SpanReport report;

    for (const trace::ThreadSnapshot &snapshot : trace::snapshot()) {
        const bool main = snapshot.name == "main";
        const std::string lane = main ? "main" : "workers";
        std::vector<const trace::TraceEvent *> spans;
        for (const trace::TraceEvent &event : snapshot.events) {
            if (event.kind == trace::TraceEvent::Kind::span) {
                spans.push_back(&event);
            }
        }
        // Parents start no later and last no shorter than children.
        std::sort(spans.begin(), spans.end(),
                  [](const trace::TraceEvent *a,
                     const trace::TraceEvent *b) {
                      return a->startNs != b->startNs
                          ? a->startNs < b->startNs
                          : a->durationNs > b->durationNs;
                  });
        std::vector<Open> stack;
        std::map<const trace::TraceEvent *, u64> childNs;
        for (const trace::TraceEvent *span : spans) {
            while (!stack.empty() && stack.back().endNs <= span->startNs) {
                stack.pop_back();
            }
            if (!stack.empty()) {
                childNs[stack.back().event] += span->durationNs;
            }
            stack.push_back({span, span->startNs + span->durationNs});
        }
        for (const trace::TraceEvent *span : spans) {
            const u64 children = childNs[span];
            const u64 self =
                span->durationNs > children ? span->durationNs - children
                                            : 0;
            const double seconds =
                static_cast<double>(span->durationNs) / 1e9;
            SpanRow &row = rows[{lane, std::string(span->category) + "/" +
                                           span->name}];
            ++row.count;
            row.totalSeconds += seconds;
            row.selfSeconds += static_cast<double>(self) / 1e9;
            row.durations.push_back(seconds);
            row.selfDurations.push_back(static_cast<double>(self) / 1e9);
            if (main && std::string(span->category) == "bench" &&
                std::string(span->name) == "rep") {
                report.repSeconds = seconds;
                report.uncoveredFraction = span->durationNs == 0
                    ? 0.0
                    : static_cast<double>(self) /
                        static_cast<double>(span->durationNs);
            }
        }
    }
    for (auto &[key, row] : rows) {
        row.lane = key.first;
        row.span = key.second;
        report.rows.push_back(std::move(row));
    }
    return report;
}

SpanRow
SpanReport::merged(const std::string &span) const
{
    SpanRow out;
    out.span = span;
    for (const SpanRow &row : rows) {
        if (row.span != span) {
            continue;
        }
        out.count += row.count;
        out.totalSeconds += row.totalSeconds;
        out.selfSeconds += row.selfSeconds;
        out.durations.insert(out.durations.end(), row.durations.begin(),
                             row.durations.end());
        out.selfDurations.insert(out.selfDurations.end(),
                                 row.selfDurations.begin(),
                                 row.selfDurations.end());
    }
    return out;
}

} // namespace bench_e2e
