#include "aliasing/three_c.hh"

#include <bit>

#include "aliasing/tagged_table.hh"
#include "predictors/history.hh"
#include "predictors/info_vector.hh"
#include "support/check.hh"
#include "support/logging.hh"
#include "support/site_table.hh"

namespace bpred
{

namespace
{

/**
 * Exact miss count of a fully-associative LRU table, kept from
 * last-use timestamps instead of a recency list. Reference i is
 * stamped i. A key is resident exactly when its last use is at or
 * after `boundary`; `live` marks the stamps that are still some
 * key's last use, so the LRU entry is the first live stamp at or
 * after `boundary`, and evicting it moves `boundary` past it. The
 * boundary only moves forward, so eviction costs amortised O(1).
 */
class LruMissCounter
{
  public:
    /** A table of @p entries, referenced at most @p references
     * times. */
    LruMissCounter(u64 entries, u64 references)
        : live(references / 64 + 1), capacity(entries)
    {
    }

    /** Reference @p key. */
    void
    reference(u64 key)
    {
        const u64 now = stamps++;
        auto [last_use, first] = lastUse.tryEmplace(key);
        if (first || last_use < boundary) {
            ++misses;
            compulsory += first ? 1 : 0;
            if (resident == capacity) {
                evictOldest();
            } else {
                ++resident;
            }
        } else {
            flip(last_use);
        }
        last_use = now;
        flip(now);
    }

    /** References that missed. */
    u64 misses = 0;

    /** First references to a key (all of them missed). */
    u64 compulsory = 0;

  private:
    /** Toggle the live bit of @p stamp: set when the stamp is
     * made, cleared when its key is hit again. */
    void
    flip(u64 stamp)
    {
        BP_DCHECK(stamp / 64 < live.size(), "three-Cs stamp out of range");
        live[stamp / 64] ^= u64(1) << (stamp % 64);
    }

    /** Move `boundary` past the first live stamp at or after it. */
    void
    evictOldest()
    {
        u64 word = boundary / 64;
        u64 bits = live[word] & (~u64(0) << (boundary % 64));
        while (bits == 0) {
            ++word;
            BP_DCHECK(word < live.size(), "three-Cs LRU scan overran");
            bits = live[word];
        }
        boundary = word * 64 + u64(std::countr_zero(bits)) + 1;
    }

    /** Key -> stamp of its last reference. */
    FlatTable<u64> lastUse;

    /** One bit per stamp: set while it is some key's last use. */
    std::vector<u64> live;

    /** The next reference's stamp. */
    u64 stamps = 0;

    /** Stamps below this belong to evicted keys. */
    u64 boundary = 0;

    /** Keys whose last use is at or after `boundary`. */
    u64 resident = 0;

    /** Entries the table holds. */
    u64 capacity;
};

} // namespace

ThreeCsResult
measureThreeCs(const Trace &trace, const IndexFunction &function)
{
    return measureThreeCsMulti(trace, {function}).front();
}

std::vector<ThreeCsResult>
measureThreeCsMulti(const Trace &trace,
                    const std::vector<IndexFunction> &functions)
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

    LruMissCounter fa_lru(u64(1) << functions.front().indexBits,
                          trace.size());
    GlobalHistory history;
    u64 dynamic_branches = 0;

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
        fa_lru.reference(key);
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
        result.faMissRatio = ratio(fa_lru.misses);
        result.compulsory = ratio(fa_lru.compulsory);
        results.push_back(result);
    }
    return results;
}

} // namespace bpred
