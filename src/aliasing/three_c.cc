#include "aliasing/three_c.hh"

#include "aliasing/fa_lru_table.hh"
#include "aliasing/tagged_table.hh"
#include "predictors/history.hh"
#include "predictors/info_vector.hh"
#include "support/logging.hh"
#include "support/site_table.hh"

namespace bpred
{

ThreeCsResult
measureThreeCs(const Trace &trace, const IndexFunction &function)
{
    return measureThreeCsMulti(trace, {function}).front();
}

std::vector<ThreeCsResult>
measureThreeCsMulti(const Trace &trace,
                    const std::vector<IndexFunction> &functions,
                    u64 fa_entries)
{
    if (functions.empty()) {
        fatal("measureThreeCsMulti: no index functions given");
    }
    const unsigned history_bits = functions.front().historyBits;
    for (const IndexFunction &function : functions) {
        if (function.historyBits != history_bits) {
            fatal("measureThreeCsMulti: functions must share "
                  "historyBits");
        }
    }
    if (fa_entries == 0) {
        fa_entries = u64(1) << functions.front().indexBits;
    }

    // Each function's kind is resolved here, once; each tagged
    // table's misses are tallied beside it without a branch.
    struct DirectMapped
    {
        ResolvedIndex index;
        TaggedDirectMappedTable table;
        u64 misses = 0;
    };
    std::vector<DirectMapped> dm_tables;
    dm_tables.reserve(functions.size());
    for (const IndexFunction &function : functions) {
        dm_tables.push_back(
            {function.resolve(), TaggedDirectMappedTable(function.indexBits)});
    }

    FullyAssociativeLruTable fa_table(fa_entries);
    FlatTable<NoValue> seen;
    GlobalHistory history;
    u64 dynamic_branches = 0;
    u64 compulsory = 0;

    for (const BranchRecord &record : trace) {
        if (!record.conditional) {
            history.shiftIn(true);
            continue;
        }
        ++dynamic_branches;
        const u64 key =
            packInfoVector(record.pc, history.raw(), history_bits);

        for (DirectMapped &dm : dm_tables) {
            dm.misses += dm.table.reference(
                dm.index(record.pc, history.raw()), key);
        }
        // A first reference always misses the FA table, so only
        // its misses need the first-reference set.
        if (fa_table.access(key) == nullptr) {
            compulsory += seen.tryEmplace(key).second ? 1 : 0;
        }
        history.shiftIn(record.taken);
    }

    std::vector<ThreeCsResult> results;
    results.reserve(functions.size());
    const auto ratio = [dynamic_branches](u64 events) {
        return dynamic_branches == 0
            ? 0.0
            : static_cast<double>(events) /
                static_cast<double>(dynamic_branches);
    };
    for (std::size_t i = 0; i < functions.size(); ++i) {
        ThreeCsResult result;
        result.function = functions[i];
        result.dynamicBranches = dynamic_branches;
        result.totalAliasing = ratio(dm_tables[i].misses);
        result.faMissRatio = fa_table.missStat().ratio();
        result.compulsory = ratio(compulsory);
        results.push_back(result);
    }
    return results;
}

} // namespace bpred
