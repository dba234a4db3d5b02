#include "sim/corpus.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "sim/factory.hh"
#include "sim/gang.hh"
#include "support/aligned.hh"
#include "support/logging.hh"
#include "support/site_table.hh"
#include "support/tracing.hh"
#include "trace/adapters.hh"

namespace bpred
{

namespace
{

std::string
formatPc(Addr pc)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "0x%llx",
                  static_cast<unsigned long long>(pc));
    return buffer;
}

Predictability
classifySite(const SiteCounts &cell, const CorpusOptions &opt)
{
    if (cell.branches < opt.classifyMinBranches) {
        return Predictability::Cold;
    }
    const double ratio = static_cast<double>(cell.mispredicts) /
        static_cast<double>(cell.branches);
    if (ratio <= opt.easyThreshold) {
        return Predictability::Easy;
    }
    if (ratio > opt.hardThreshold) {
        return Predictability::Hard;
    }
    return Predictability::Medium;
}

CorpusClassification
classify(const SiteTable &tally, const CorpusOptions &opt)
{
    CorpusClassification classes;
    std::vector<SitePredictability> all;
    // bp_lint: allow(reserve-untrusted): sized by the session's own
    // in-memory site table, not by any decoded field.
    all.reserve(tally.size());
    tally.forEach([&](Addr pc, const SiteCounts &cell) {
        SitePredictability site;
        site.pc = pc;
        site.branches = cell.branches;
        site.mispredicts = cell.mispredicts;
        site.klass = classifySite(cell, opt);
        classes.totalMispredicts += cell.mispredicts;
        switch (site.klass) {
          case Predictability::Easy:
            ++classes.easySites;
            break;
          case Predictability::Medium:
            ++classes.mediumSites;
            break;
          case Predictability::Hard:
            ++classes.hardSites;
            classes.hardMispredicts += cell.mispredicts;
            break;
          case Predictability::Cold:
            ++classes.coldSites;
            break;
        }
        all.push_back(site);
    });
    std::sort(all.begin(), all.end(),
              [](const SitePredictability &a,
                 const SitePredictability &b) {
                  if (a.mispredicts != b.mispredicts) {
                      return a.mispredicts > b.mispredicts;
                  }
                  return a.pc < b.pc;
              });
    if (all.size() > opt.topSites) {
        // bp_lint: allow(reserve-untrusted): shrinking to the
        // caller's top-K request, never to a decoded count.
        all.resize(opt.topSites);
    }
    classes.hardest = std::move(all);
    return classes;
}

CorpusFileResult
runFile(const std::string &path, const std::string &file_name,
        const CorpusOptions &opt)
{
    TRACE_SCOPE("corpus", "file-replay");
    CorpusFileResult result;
    result.file = file_name;
    try {
        std::unique_ptr<TraceSource> source =
            openCorpusSource(path, result.ingest);
        result.traceName = source->name();

        std::vector<std::unique_ptr<Predictor>> predictors;
        for (const std::string &spec : opt.specs) {
            predictors.push_back(makePredictor(spec));
        }

        // The reference member (specs[0]) tallies exact per-site
        // outcomes — warmup branches included — from its replay
        // kernel's mispredict mask; its top-K sites come along.
        GangSession gang(opt.blockRecords);
        SiteTable tally;
        for (std::size_t i = 0; i < predictors.size(); ++i) {
            SimOptions member = opt.sim;
            // A shared registry would race across pool jobs.
            member.metrics = nullptr;
            if (i == 0 && opt.topSites > 0) {
                member.siteTally = &tally;
                member.topSites = opt.topSites;
            }
            gang.add(*predictors[i], member, result.traceName);
        }

        SiteTable conditional_sites;
        SiteTable unconditional_sites;
        AlignedVector<BranchRecord> buffer(gang.blockRecords());
        while (const std::size_t n =
                   source->pull(buffer.data(), buffer.size())) {
            for (std::size_t i = 0; i < n; ++i) {
                const BranchRecord &record = buffer[i];
                if (record.conditional) {
                    ++result.stats.dynamicConditional;
                    result.stats.takenConditional +=
                        record.taken ? 1 : 0;
                    ++conditional_sites.at(record.pc).branches;
                } else {
                    ++result.stats.dynamicUnconditional;
                    ++unconditional_sites.at(record.pc).branches;
                }
            }
            result.records += n;
            gang.feed(buffer.data(), n);
        }
        result.stats.staticConditional = conditional_sites.size();
        result.stats.staticUnconditional =
            unconditional_sites.size();

        result.results = gang.finish();
        for (std::size_t i = 0; i < opt.specs.size(); ++i) {
            if (const std::exception_ptr error = gang.memberError(i)) {
                try {
                    std::rethrow_exception(error);
                } catch (const std::exception &e) {
                    throw std::runtime_error(opt.specs[i] + ": " +
                                             e.what());
                }
            }
        }

        if (opt.topSites > 0) {
            result.classes = classify(tally, opt);
        }
    } catch (const std::exception &e) {
        result = CorpusFileResult();
        result.file = file_name;
        result.error = e.what();
    }
    return result;
}

} // namespace

const char *
predictabilityName(Predictability klass)
{
    switch (klass) {
      case Predictability::Easy:
        return "easy";
      case Predictability::Medium:
        return "medium";
      case Predictability::Hard:
        return "hard";
      case Predictability::Cold:
        return "cold";
    }
    return "unknown";
}

double
CorpusClassification::hardShare() const
{
    return totalMispredicts == 0
        ? 0.0
        : static_cast<double>(hardMispredicts) /
            static_cast<double>(totalMispredicts);
}

JsonValue
CorpusFileResult::toJson() const
{
    JsonValue value = JsonValue::object();
    value["file"] = file;
    if (!error.empty()) {
        value["error"] = error;
        return value;
    }
    value["trace"] = traceName;
    value["ingest"] = ingest;
    value["records"] = records;

    JsonValue stat = JsonValue::object();
    stat["dynamic_conditional"] = stats.dynamicConditional;
    stat["static_conditional"] = stats.staticConditional;
    stat["dynamic_unconditional"] = stats.dynamicUnconditional;
    stat["static_unconditional"] = stats.staticUnconditional;
    stat["taken_conditional"] = stats.takenConditional;
    stat["taken_ratio"] = stats.takenRatio();
    value["stats"] = std::move(stat);

    JsonValue runs = JsonValue::array();
    for (const SimResult &result : results) {
        runs.push(result.toJson());
    }
    value["results"] = std::move(runs);

    JsonValue pred = JsonValue::object();
    pred["easy_sites"] = classes.easySites;
    pred["medium_sites"] = classes.mediumSites;
    pred["hard_sites"] = classes.hardSites;
    pred["cold_sites"] = classes.coldSites;
    pred["hard_mispredict_share"] = classes.hardShare();
    JsonValue hardest = JsonValue::array();
    for (const SitePredictability &site : classes.hardest) {
        JsonValue entry = JsonValue::object();
        entry["pc"] = formatPc(site.pc);
        entry["branches"] = site.branches;
        entry["mispredicts"] = site.mispredicts;
        entry["class"] = predictabilityName(site.klass);
        hardest.push(std::move(entry));
    }
    pred["hardest"] = std::move(hardest);
    value["predictability"] = std::move(pred);
    return value;
}

JsonValue
CorpusReport::toJson() const
{
    JsonValue value = JsonValue::object();
    value["directory"] = directory;
    JsonValue spec_list = JsonValue::array();
    for (const std::string &spec : specs) {
        spec_list.push(spec);
    }
    value["specs"] = std::move(spec_list);

    JsonValue file_list = JsonValue::array();
    for (const CorpusFileResult &file : files) {
        file_list.push(file.toJson());
    }
    value["files"] = std::move(file_list);

    JsonValue summary = JsonValue::array();
    for (std::size_t s = 0; s < specs.size(); ++s) {
        u64 conditionals = 0;
        u64 mispredicts = 0;
        u64 ok_files = 0;
        for (const CorpusFileResult &file : files) {
            if (!file.error.empty() || s >= file.results.size()) {
                continue;
            }
            ++ok_files;
            conditionals += file.results[s].conditionals;
            mispredicts += file.results[s].mispredicts;
        }
        JsonValue entry = JsonValue::object();
        entry["spec"] = specs[s];
        entry["files"] = ok_files;
        entry["conditionals"] = conditionals;
        entry["mispredicts"] = mispredicts;
        entry["mispredict_percent"] = conditionals == 0
            ? 0.0
            : 100.0 * static_cast<double>(mispredicts) /
                static_cast<double>(conditionals);
        summary.push(std::move(entry));
    }
    value["summary"] = std::move(summary);
    return value;
}

std::vector<std::string>
listTraceFiles(const std::string &directory)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(directory, ec)) {
        fatal("corpus: '" + directory + "' is not a directory");
    }
    std::vector<std::string> files;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(directory)) {
        if (!entry.is_regular_file()) {
            continue;
        }
        const std::string name = entry.path().filename().string();
        if (isTraceFileName(name)) {
            files.push_back(name);
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

CorpusReport
runCorpus(const std::string &directory, const CorpusOptions &options)
{
    if (options.specs.empty()) {
        fatal("corpus: no predictor specs given");
    }
    // Fail on a malformed spec before any trace is touched, with
    // the factory's own diagnostic.
    for (const std::string &spec : options.specs) {
        parseSpec(spec);
    }
    const std::vector<std::string> names = listTraceFiles(directory);
    if (names.empty()) {
        fatal("corpus: no trace files in '" + directory + "'");
    }

    std::vector<std::function<CorpusFileResult()>> jobs;
    for (const std::string &name : names) {
        const std::string path =
            (std::filesystem::path(directory) / name).string();
        jobs.push_back([path, name, &options]() {
            return runFile(path, name, options);
        });
    }

    CorpusReport report;
    report.directory = directory;
    report.specs = options.specs;
    {
        TRACE_SCOPE("corpus", "fan-out", 0, jobs.size());
        report.files = parallelMap<CorpusFileResult>(
            jobs, options.threads);
    }
    return report;
}

} // namespace bpred
