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
        if (cell.branches == 0) {
            return; // an unconditional-only site
        }
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
    // A strict total order, so the top K are the same whichever
    // sites the selection leaves unsorted.
    const auto keep = all.begin() +
        std::ptrdiff_t(std::min(all.size(), opt.topSites));
    std::partial_sort(all.begin(), keep, all.end(),
                      [](const SitePredictability &a,
                         const SitePredictability &b) {
                          if (a.mispredicts != b.mispredicts) {
                              return a.mispredicts > b.mispredicts;
                          }
                          return a.pc < b.pc;
                      });
    all.erase(keep, all.end());
    classes.hardest = std::move(all);
    return classes;
}

/** A file's stats from the reference member's census. */
TraceStats
censusStats(const SiteTable &tally)
{
    TraceStats stats;
    tally.forEach([&](Addr, const SiteCounts &site) {
        stats.dynamicConditional += site.branches;
        stats.takenConditional += site.taken;
        stats.dynamicUnconditional += site.unconditionals;
        stats.staticConditional += site.branches != 0 ? 1 : 0;
        stats.staticUnconditional += site.unconditionals != 0 ? 1 : 0;
    });
    return stats;
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

        // The reference member (specs[0]) keeps the file's census:
        // every record, warmup included, counted per site with its
        // exact mispredicts from the replay kernel's mask. The file
        // stats, the classification and the member's top sites all
        // come from it, so this loop touches no record itself.
        GangSession gang(opt.blockRecords);
        SiteTable tally;
        for (std::size_t i = 0; i < predictors.size(); ++i) {
            SimOptions member = opt.sim;
            // A shared registry would race across pool jobs.
            member.metrics = nullptr;
            if (i == 0) {
                member.siteTally = &tally;
                member.topSites = opt.topSites;
            }
            gang.add(*predictors[i], member, result.traceName);
        }

        AlignedVector<BranchRecord> buffer(gang.blockRecords());
        while (const std::size_t n =
                   source->pull(buffer.data(), buffer.size())) {
            result.records += n;
            gang.feed(buffer.data(), n);
        }

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

        result.stats = censusStats(tally);
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
    // Fail on a spec the factory cannot build — malformed, or with
    // a field out of range — before any trace is touched, with the
    // factory's own diagnostic, not as an error row per file.
    for (const std::string &spec : options.specs) {
        makePredictor(spec).reset();
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
