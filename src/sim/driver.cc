#include "sim/driver.hh"

#include <cstdio>

#include "sim/session.hh"

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

} // namespace

JsonValue
SimResult::toJson() const
{
    JsonValue result = JsonValue::object();
    result["predictor"] = predictorName;
    result["trace"] = traceName;
    result["conditionals"] = conditionals;
    result["mispredicts"] = mispredicts;
    result["mispredict_ratio"] = mispredictRatio();
    result["storage_bits"] = storageBits;
    if (windowSize > 0) {
        result["window_size"] = windowSize;
        JsonValue series = JsonValue::array();
        for (const WindowSample &window : windows) {
            JsonValue sample = JsonValue::object();
            sample["branches"] = window.branches;
            sample["mispredicts"] = window.mispredicts;
            sample["ratio"] = window.ratio();
            series.push(std::move(sample));
        }
        result["windows"] = std::move(series);
    }
    if (!topSites.empty()) {
        JsonValue sites = JsonValue::array();
        for (const SiteCount &site : topSites) {
            JsonValue entry = JsonValue::object();
            entry["pc"] = formatPc(site.pc);
            entry["mispredicts"] = site.mispredicts;
            sites.push(std::move(entry));
        }
        result["top_sites"] = std::move(sites);
    }
    return result;
}

SimResult
simulateWithOptions(Predictor &predictor, const Trace &trace,
                    const SimOptions &options)
{
    // The batch loop is a one-chunk streaming session: the hot loop
    // itself lives in SimSession::feed() (sim/session.cc), so batch
    // and streaming runs cannot diverge.
    SimSession session(predictor, options, trace.name());
    session.feed(trace);
    return session.finish();
}

SimResult
simulate(Predictor &predictor, const Trace &trace)
{
    return simulateWithOptions(predictor, trace, SimOptions());
}

} // namespace bpred
