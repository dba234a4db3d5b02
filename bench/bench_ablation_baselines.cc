/**
 * @file
 * Ablation A4: context for the paper's choice of gshare as the
 * reference single-bank scheme — the wider baseline field at
 * comparable storage (32 Kbit of counters).
 *
 * All (spec x trace) cells run on the SweepRunner thread pool via
 * factory specs; the ordered results keep output identical to the
 * serial run at any `--threads` setting.
 */

#include "bench_common.hh"

#include <map>
#include <string>

#include "sim/parallel.hh"

int
main(int argc, char **argv)
{
    using namespace bpred;
    using namespace bpred::bench;

    init(argc, argv);

    banner("Ablation: baseline field",
           "Baselines at ~32Kbit storage: static, bimodal, "
           "gselect, gshare, PAg, hybrid, gskewed, e-gskew.");

    const std::vector<std::string> specs = {
        "static:taken",     "bimodal:14",
        "gselect:14:10",    "gshare:14:10",
        "pag:12:10",        "hybrid:13:10",
        "gskewed:3:12:10",  "egskew:12:10",
    };

    SweepRunner runner(sweepThreads(), blockRecords());
    for (const std::string &spec : specs) {
        for (const Trace &trace : suite()) {
            runner.enqueue(spec, trace);
        }
    }
    const std::vector<SimResult> results = runner.run();

    TextTable table([&] {
        std::vector<std::string> headers = {"predictor"};
        for (const Trace &trace : suite()) {
            headers.push_back(trace.name());
        }
        headers.push_back("mean");
        return headers;
    }());

    std::size_t cell = 0;
    std::map<std::string, double> mean;
    for (const std::string &spec : specs) {
        table.row().cell(spec);
        double sum = 0.0;
        for (std::size_t i = 0; i < suite().size(); ++i) {
            const double pct = results[cell++].mispredictPercent();
            table.percentCell(pct);
            sum += pct;
        }
        mean[spec] = sum / static_cast<double>(suite().size());
        table.percentCell(mean[spec]);
    }
    emitTable("summary", table);

    // The paper's claim at this budget (§6, Figure 12): a 3x4K
    // e-gskew is level with a 32K-entry gshare, so it is no worse
    // than the 16K-entry gshare here while using 24 of its 32 Kbit.
    const double egskew = mean.at("egskew:12:10");
    const double gshare = mean.at("gshare:14:10");
    expectation(
        "3x4K e-gskew performs like a 32K-entry gshare (paper §6), so "
        "egskew:12:10 (24 Kbit) mispredicts no more than gshare:14:10 "
        "(32 Kbit) on the suite mean: " +
        std::string(egskew <= gshare ? "holds" : "FAILS") + " (" +
        formatDouble(egskew) + "% vs " + formatDouble(gshare) +
        "%). The order of the rest of the field (gshare < gselect < "
        "bimodal < static) is McFarling's, not the paper's, and is "
        "not checked.");
    return finish();
}
