/**
 * @file
 * Exact per-branch-site counts in a flat open-addressing table.
 *
 * Corpus classification needs the exact {branches, mispredicts}
 * pair of every static site of a trace, and the static-site census
 * needs the set of distinct PCs; both are touched once per record.
 * A node-based std::unordered_map pays an allocation per site and a
 * pointer chase per lookup; this table keeps every slot in one
 * power-of-two array, probed linearly from a multiplicative hash,
 * and grows at half load — so a lookup is one hash and, almost
 * always, one cache line.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "support/types.hh"

namespace bpred
{

/** Exact dynamic counts for one branch site. */
struct SiteCounts
{
    /** Conditional executions. */
    u64 branches = 0;

    /** Mispredicted executions among them. */
    u64 mispredicts = 0;
};

/** Addr -> SiteCounts, exact, in one flat array. */
class SiteTable
{
  public:
    /** The counts for @p pc, inserted as zeros on first touch. */
    SiteCounts &
    at(Addr pc)
    {
        if (pc == emptyPc) [[unlikely]] {
            // The sentinel itself lives outside the array.
            used += std::size_t(!haveEmptyPc);
            haveEmptyPc = true;
            return emptyPcCounts;
        }
        if (slots.empty()) [[unlikely]] {
            grow();
        }
        for (std::size_t i = home(pc);; i = (i + 1) & (slots.size() - 1)) {
            Slot &slot = slots[i];
            if (slot.pc == pc) {
                return slot.counts;
            }
            if (slot.pc == emptyPc) {
                if ((used + 1) * 2 > slots.size()) {
                    grow();
                    return at(pc);
                }
                ++used;
                slot.pc = pc;
                return slot.counts;
            }
        }
    }

    /** Distinct sites touched so far. */
    std::size_t size() const { return used; }

    /** Visit every (pc, counts) pair, in unspecified order. */
    template <typename Visit>
    void
    forEach(Visit &&visit) const
    {
        for (const Slot &slot : slots) {
            if (slot.pc != emptyPc) {
                visit(slot.pc, slot.counts);
            }
        }
        if (haveEmptyPc) {
            visit(emptyPc, emptyPcCounts);
        }
    }

  private:
    /** Marks a free slot; a real site at this PC is kept aside. */
    static constexpr Addr emptyPc = ~Addr(0);

    struct Slot
    {
        Addr pc = emptyPc;
        SiteCounts counts;
    };

    /** Fibonacci hashing: the top bits of pc * 2^64/phi. */
    std::size_t
    home(Addr pc) const
    {
        return std::size_t((pc * 0x9e3779b97f4a7c15ull) >> shift);
    }

    /** Double the array (or create it) and re-place every slot. */
    void grow();

    std::vector<Slot> slots;

    /** 64 - log2(slots.size()). */
    unsigned shift = 64;

    /** Occupied slots, plus one for the sentinel site if seen. */
    std::size_t used = 0;

    bool haveEmptyPc = false;
    SiteCounts emptyPcCounts;
};

} // namespace bpred
