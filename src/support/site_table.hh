/**
 * @file
 * One flat open-addressing identity table: u64 key -> Value.
 *
 * Every per-record identity lookup in the repository — corpus site
 * tallies, the three-Cs first-reference set, the FA-LRU index, the
 * stack-distance last-use map, the unaliased predictor's counters —
 * touches one key per trace record. A node-based std::unordered_map
 * pays an allocation per key and a pointer chase per lookup; this
 * table keeps every slot in one power-of-two array, probed linearly
 * from a multiplicative hash, and grows at half load — so a lookup
 * is one hash and, almost always, one cache line. erase() shifts the
 * rest of its probe cluster back, so no tombstones accumulate.
 */

#pragma once

#include <cstddef>
#include <utility>
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

/** A FlatTable value that carries nothing: the table is a key set. */
struct NoValue
{
};

/** u64 -> Value, exact, in one flat array. Every u64 is a key. */
template <typename Value>
class FlatTable
{
  public:
    /**
     * The value for @p key, default-constructed if absent, and
     * whether this call inserted it. The reference is invalidated
     * by the next insertion or erase.
     */
    std::pair<Value &, bool>
    tryEmplace(u64 key)
    {
        if (key == emptyKey) [[unlikely]] {
            // The sentinel itself lives outside the array.
            const bool inserted = !haveEmptyKey;
            used += std::size_t(inserted);
            haveEmptyKey = true;
            return {emptyKeyValue, inserted};
        }
        if (slots.empty()) [[unlikely]] {
            grow();
        }
        for (std::size_t i = home(key);; i = next(i)) {
            Slot &slot = slots[i];
            if (slot.key == key) {
                return {slot.value, false};
            }
            if (slot.key == emptyKey) {
                if ((used + 1) * 2 > slots.size()) {
                    grow();
                    return tryEmplace(key);
                }
                ++used;
                slot.key = key;
                return {slot.value, true};
            }
        }
    }

    /** The value for @p key, inserted as Value() on first touch. */
    Value &at(u64 key) { return tryEmplace(key).first; }

    /** The value for @p key, or nullptr; never inserts. */
    Value *
    find(u64 key)
    {
        if (key == emptyKey) [[unlikely]] {
            return haveEmptyKey ? &emptyKeyValue : nullptr;
        }
        const std::size_t i = slotOf(key);
        return i == slots.size() ? nullptr : &slots[i].value;
    }

    const Value *
    find(u64 key) const
    {
        return const_cast<FlatTable *>(this)->find(key);
    }

    /**
     * Remove @p key if present. The slots after it in its probe
     * cluster move back, so lookups never need tombstones.
     *
     * @return Whether the key was present.
     */
    bool
    erase(u64 key)
    {
        if (key == emptyKey) [[unlikely]] {
            if (!haveEmptyKey) {
                return false;
            }
            haveEmptyKey = false;
            emptyKeyValue = Value();
            --used;
            return true;
        }
        std::size_t hole = slotOf(key);
        if (hole == slots.size()) {
            return false;
        }
        // Backward shift: an entry may fill the hole when the hole
        // lies on its probe path, i.e. between its home and itself.
        const std::size_t mask = slots.size() - 1;
        for (std::size_t i = next(hole);; i = next(i)) {
            Slot &slot = slots[i];
            if (slot.key == emptyKey) {
                break;
            }
            const std::size_t from_home = (i - home(slot.key)) & mask;
            if (from_home >= ((i - hole) & mask)) {
                slots[hole] = std::move(slot);
                hole = i;
            }
        }
        slots[hole] = Slot();
        --used;
        return true;
    }

    /** Distinct keys present. */
    std::size_t size() const { return used; }

    bool empty() const { return used == 0; }

    /** Remove every key; keeps the array for reuse. */
    void
    clear()
    {
        for (Slot &slot : slots) {
            slot = Slot();
        }
        used = 0;
        haveEmptyKey = false;
        emptyKeyValue = Value();
    }

    /** Visit every (key, value) pair, in unspecified order. */
    template <typename Visit>
    void
    forEach(Visit &&visit) const
    {
        for (const Slot &slot : slots) {
            if (slot.key != emptyKey) {
                visit(slot.key, slot.value);
            }
        }
        if (haveEmptyKey) {
            visit(emptyKey, emptyKeyValue);
        }
    }

  private:
    /** Marks a free slot; a real entry at this key is kept aside. */
    static constexpr u64 emptyKey = ~u64(0);

    struct Slot
    {
        u64 key = emptyKey;
        [[no_unique_address]] Value value{};
    };

    /** Fibonacci hashing: the top bits of key * 2^64/phi. */
    std::size_t
    home(u64 key) const
    {
        return std::size_t((key * 0x9e3779b97f4a7c15ull) >> shift);
    }

    std::size_t
    next(std::size_t i) const
    {
        return (i + 1) & (slots.size() - 1);
    }

    /** The array slot holding @p key, or slots.size() if absent. */
    std::size_t
    slotOf(u64 key) const
    {
        if (slots.empty()) {
            return 0;
        }
        for (std::size_t i = home(key);; i = next(i)) {
            if (slots[i].key == key) {
                return i;
            }
            if (slots[i].key == emptyKey) {
                return slots.size();
            }
        }
    }

    /** Double the array (or create it) and re-place every slot. */
    void
    grow()
    {
        constexpr std::size_t initialSlots = 1024;
        std::vector<Slot> old = std::move(slots);
        const std::size_t capacity =
            old.empty() ? initialSlots : old.size() * 2;
        slots.assign(capacity, Slot());
        shift = 64;
        for (std::size_t n = capacity; n > 1; n >>= 1) {
            --shift;
        }
        for (Slot &slot : old) {
            if (slot.key == emptyKey) {
                continue;
            }
            std::size_t i = home(slot.key);
            while (slots[i].key != emptyKey) {
                i = next(i);
            }
            slots[i] = std::move(slot);
        }
    }

    std::vector<Slot> slots;

    /** 64 - log2(slots.size()). */
    unsigned shift = 64;

    /** Occupied slots, plus one for the sentinel key if present. */
    std::size_t used = 0;

    bool haveEmptyKey = false;
    Value emptyKeyValue{};
};

/** Addr -> SiteCounts: the corpus runner's exact per-site tally. */
using SiteTable = FlatTable<SiteCounts>;

} // namespace bpred
