/**
 * @file
 * A fully-associative table with LRU replacement.
 *
 * Probing it with (address, history) identities measures
 * compulsory + capacity aliasing (§3.2): a fully-associative table
 * has no conflicts by construction, and LRU is the reference
 * hardware-realizable replacement policy the paper uses. The
 * three-Cs meter (three_c.hh) counts the same misses without it,
 * from last-use stamps; this table serves FaLruPredictor, which
 * needs each entry's payload and the recency order.
 */

#pragma once

#include <vector>

#include "support/check.hh"
#include "support/site_table.hh"
#include "support/stats.hh"
#include "support/types.hh"

namespace bpred
{

class ByteReader;
class ByteWriter;

/**
 * Fully-associative LRU table mapping 64-bit identities to a small
 * payload (a saturating-counter value when used as a predictor, or
 * nothing meaningful when used purely as an aliasing meter).
 */
class FullyAssociativeLruTable
{
  public:
    /**
     * @param capacity Maximum number of resident entries (> 0).
     * @throws FatalError when @p capacity does not fit a u32 node
     *         index.
     */
    explicit FullyAssociativeLruTable(u64 capacity);

    /**
     * Look up @p key without changing table state.
     *
     * @return Pointer to the payload, or nullptr on miss.
     */
    const u8 *peek(u64 key) const;

    /**
     * Reference @p key: on a hit, move it to MRU position and return
     * a pointer to its payload. On a miss, insert it (evicting the
     * LRU entry if the table is full) with payload @p initial and
     * return nullptr. The miss/hit is recorded in missStat().
     */
    u8 *access(u64 key, u8 initial = 0);

    /** Update the payload of a resident key. */
    void
    setPayload(u64 key, u8 payload)
    {
        const u32 *node = index.find(key);
        BP_CHECK(node != nullptr, "fa-lru setPayload on a key that "
                                  "is not resident");
        payloads[*node] = payload;
    }

    /** Maximum entries. */
    u64 capacity() const { return capacity_; }

    /** Current resident entries. */
    u64 size() const { return nodes.size(); }

    /** Miss ratio statistics over all access() calls. */
    const RatioStat &missStat() const { return misses; }

    /** Drop all entries and statistics. */
    void reset();

    /**
     * Serialize capacity, the resident entries in MRU-to-LRU order,
     * and the miss statistics. The recency order is part of the
     * observable state (it decides future victims), so the byte
     * stream is canonical: two tables that saw the same reference
     * sequence serialize identically.
     */
    void saveState(ByteWriter &out) const;

    /**
     * Restore saveState() bytes into this table.
     *
     * @throws FatalError on a capacity mismatch, an entry count
     *         over capacity, a duplicate key, inconsistent miss
     *         tallies, or truncation.
     */
    void loadState(ByteReader &in);

  private:
    /** Marks the end of the recency list. */
    static constexpr u32 none = ~u32(0);

    /** One resident entry, linked MRU -> LRU by node index. */
    struct Node
    {
        u64 key;
        u32 prev;
        u32 next;
    };

    /** Detach node @p n from the recency list. */
    void unlink(u32 n);

    /** Make node @p n the MRU entry. */
    void pushFront(u32 n);

    /**
     * Resident entries. Nodes are appended until the table is full;
     * after that the LRU node is reused for each new key.
     */
    std::vector<Node> nodes;

    /** Per-node payload, apart so the recency walk skips it. */
    std::vector<u8> payloads;

    /** Key -> index into nodes. */
    FlatTable<u32> index;
    u32 mru = none;
    u32 lru = none;
    RatioStat misses;
    u64 capacity_;
};

} // namespace bpred

