/**
 * @file
 * LRU stack-distance (last-use distance) measurement.
 *
 * The analytical model (§5.2) is driven by D, "the number of
 * distinct (address, history) pairs that have been encountered
 * since the last occurrence of V". That is exactly the LRU stack
 * distance of V in the reference stream, computed here in
 * O(log T) per reference with a Fenwick tree over timestamps.
 */

#pragma once

#include <vector>

#include "support/site_table.hh"
#include "support/types.hh"

namespace bpred
{

/**
 * Online LRU stack-distance tracker over 64-bit keys.
 *
 * Classic Bennett-Kruskal algorithm: keep, for every key, the
 * timestamp of its most recent reference, and a Fenwick tree with a
 * 1 at each timestamp that is currently some key's most recent
 * reference. The stack distance of a re-reference is the number of
 * 1s strictly after the key's previous timestamp.
 */
class StackDistanceTracker
{
  public:
    /** Distance reported for a first-time (compulsory) reference. */
    static constexpr u64 infiniteDistance = ~u64(0);

    StackDistanceTracker();

    /**
     * Record a reference to @p key.
     *
     * @return The key's LRU stack distance: 0 for an immediate
     *         re-reference, or infiniteDistance for a first
     *         reference.
     */
    u64 reference(u64 key);

    /** Number of distinct keys seen so far. */
    u64 distinctKeys() const { return lastUse.size(); }

    /** Total references so far. */
    u64 references() const { return clock; }

    /** Clear all state. */
    void reset();

  private:
    void fenwickAdd(u64 position, i64 delta);
    i64 fenwickPrefixSum(u64 position) const;
    void growTo(u64 position);

    /** Fenwick tree, 1-indexed. */
    std::vector<i64> tree;

    /** Key -> timestamp of its most recent reference. */
    FlatTable<u64> lastUse;
    u64 clock = 0;
};

} // namespace bpred

