/**
 * @file
 * Bounded heavy-hitter counting (the space-saving algorithm,
 * Metwally et al. 2005).
 *
 * The simulation driver attributes mispredictions to branch sites;
 * a trace can touch hundreds of thousands of distinct PCs, so an
 * exact per-site map would dwarf the predictor under study. A
 * TopKCounter keeps a fixed number of slots: a key already tracked
 * increments its slot; a new key evicts the smallest slot and
 * inherits its count as an overcount bound. Any key whose true
 * count exceeds total/capacity is guaranteed to be present.
 *
 * Eviction ties (several slots at the minimum count) break by a
 * fixed order over the tracked keys: the iteration order the
 * counter's original std::unordered_map had under libstdc++. Keys
 * hash to key % B (B: that map's bucket count at this capacity);
 * keys sharing a bucket form one run, newest first; a bucket's run
 * goes to the front of the order when the bucket becomes non-empty
 * and leaves it when it empties. The slots are stored in that
 * order in one flat array, searched linearly — sized for the tens
 * of slots top-site reports use — so results stay identical to the
 * map-based counter without its per-eviction node allocation and
 * bucket walks.
 */

#pragma once

#include <vector>

#include "support/types.hh"

namespace bpred
{

/** Fixed-capacity approximate top-K counter over u64 keys. */
class TopKCounter
{
  public:
    /** @param capacity Number of tracked keys; must be positive. */
    explicit TopKCounter(std::size_t capacity);

    /** Record @p weight occurrences of @p key. */
    void add(u64 key, u64 weight = 1);

    /** One tracked key with its count estimate. */
    struct Item
    {
        u64 key;

        /** Estimated count; never underestimates the true count. */
        u64 count;

        /**
         * Upper bound on the estimate's excess: the true count is
         * at least count - overcount. Zero for keys tracked since
         * their first occurrence.
         */
        u64 overcount;
    };

    /** Tracked keys, highest estimated count first. */
    std::vector<Item> items() const;

    /** Number of tracked keys. */
    std::size_t size() const { return slots.size(); }

    /** Slot capacity. */
    std::size_t capacity() const { return capacity_; }

    /** Total weight added so far. */
    u64 totalAdded() const { return total; }

    /** Clear to empty. */
    void reset();

  private:
    struct Slot
    {
        u64 key;
        u64 count;
        u64 overcount;

        /** key % buckets, cached for the tie-break order. */
        u64 bucket;
    };

    std::size_t capacity_;
    u64 total = 0;

    /** Bucket count of the modelled hash map (see file comment). */
    u64 buckets;

    /** Tracked keys, in tie-break order. */
    std::vector<Slot> slots;
};

} // namespace bpred

