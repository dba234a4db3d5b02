/**
 * @file
 * The session oracle shared by the contract and corpus tests: a
 * split predict()/update() loop, one conditional at a time, with
 * warmup, flush, windows and top sites kept in the plainest form
 * (a std::map per site). It shares no bookkeeping code with
 * SimSession.
 */

#pragma once

#include <algorithm>
#include <map>

#include "predictors/predictor.hh"
#include "sim/driver.hh"
#include "trace/trace.hh"

namespace bpred
{

/**
 * The session reference: a split predict()/update() loop over
 * @p trace that honours warmup, flush, windows and top sites the way
 * SimSession's block path must — one conditional at a time, scored
 * mispredicts counted per site in a std::map and ranked by count
 * descending, then pc ascending.
 */
inline SimResult
referenceSession(Predictor &predictor, const Trace &trace,
                 const SimOptions &options)
{
    SimResult result;
    std::map<Addr, u64> sites;
    WindowSample window;
    u64 seen = 0;
    u64 since_flush = 0;
    for (const BranchRecord &record : trace) {
        if (!record.conditional) {
            predictor.notifyUnconditional(record.pc);
            continue;
        }
        const bool prediction = predictor.predict(record.pc);
        predictor.update(record.pc, record.taken);
        ++seen;
        if (options.flushInterval &&
            ++since_flush == options.flushInterval) {
            predictor.reset();
            since_flush = 0;
        }
        if (seen <= options.warmupBranches) {
            continue;
        }
        const bool wrong = prediction != record.taken;
        ++result.conditionals;
        result.mispredicts += u64(wrong);
        if (wrong) {
            ++sites[record.pc];
        }
        if (options.windowSize > 0) {
            ++window.branches;
            window.mispredicts += u64(wrong);
            if (window.branches == options.windowSize) {
                result.windows.push_back(window);
                window = WindowSample();
            }
        }
    }
    if (window.branches > 0) {
        result.windows.push_back(window);
    }
    for (const auto &[pc, count] : sites) {
        result.topSites.push_back({pc, count});
    }
    // Stable: equal counts keep the map's ascending pc order.
    std::stable_sort(result.topSites.begin(), result.topSites.end(),
                     [](const SiteCount &a, const SiteCount &b) {
                         return a.mispredicts > b.mispredicts;
                     });
    result.topSites.resize(
        std::min(result.topSites.size(), options.topSites));
    return result;
}

} // namespace bpred
