#include "trace/trace.hh"

#include "support/site_table.hh"

namespace bpred
{

double
TraceStats::takenRatio() const
{
    return dynamicConditional == 0
        ? 0.0
        : static_cast<double>(takenConditional) /
            static_cast<double>(dynamicConditional);
}

double
TraceStats::dynamicPerStatic() const
{
    return staticConditional == 0
        ? 0.0
        : static_cast<double>(dynamicConditional) /
            static_cast<double>(staticConditional);
}

TraceStats
computeTraceStats(const Trace &trace)
{
    TraceStats stats;
    FlatTable<NoValue> cond_sites;
    FlatTable<NoValue> uncond_sites;
    for (const BranchRecord &record : trace) {
        if (record.conditional) {
            ++stats.dynamicConditional;
            if (record.taken) {
                ++stats.takenConditional;
            }
            cond_sites.at(record.pc);
        } else {
            ++stats.dynamicUnconditional;
            uncond_sites.at(record.pc);
        }
    }
    stats.staticConditional = cond_sites.size();
    stats.staticUnconditional = uncond_sites.size();
    return stats;
}

} // namespace bpred
