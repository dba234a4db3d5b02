/**
 * @file
 * Tagged shadow tables for measuring aliasing.
 *
 * Following §2 of the paper: "instead of storing 1-bit or 2-bit
 * predictors in the structure, we store the identity of the last
 * (address, history) pair that accessed the entry. Aliasing occurs
 * when the indexing pair is different from the stored pair."
 */

#pragma once

#include <vector>

#include "support/check.hh"
#include "support/stats.hh"
#include "support/types.hh"

namespace bpred
{

/**
 * A direct-mapped tagged table: each entry remembers the identity
 * (the full information vector) of the last reference that indexed
 * it. Probing with a different identity is an aliasing occurrence —
 * the analogue of a cache miss with a one-datum line.
 */
class TaggedDirectMappedTable
{
  public:
    /** What a tagged-table reference found. */
    enum class Outcome : u8
    {
        Hit,      ///< Entry held the same identity.
        Cold,     ///< Entry was empty (compulsory).
        Conflict, ///< Entry held a different identity.
    };

    /** @param index_bits log2 of the number of entries. */
    explicit TaggedDirectMappedTable(unsigned index_bits);

    /**
     * Reference entry @p index with identity @p key; the entry then
     * holds @p key. Keeps no statistics, so a caller tallying many
     * references can keep the count itself.
     *
     * @return true when this reference aliased (miss): the entry was
     *         empty or held a different identity.
     */
    bool
    reference(u64 index, u64 key)
    {
        BP_DCHECK(index < tags.size(), "tagged-table index out of range");
        if (key == emptyTag) [[unlikely]] {
            return referenceEmptyTag(index);
        }
        // An empty entry reads emptyTag, which differs from key, so
        // one compare covers both kinds of miss without a branch.
        const bool miss = tags[index] != key;
        tags[index] = key;
        return miss;
    }

    /** As reference(), also counted in aliasing(). */
    bool
    access(u64 index, u64 key)
    {
        const bool miss = reference(index, key);
        aliasStat.sample(miss);
        return miss;
    }

    /**
     * As access(), but distinguishing a cold (first-touch) entry
     * from a genuine identity conflict.
     */
    Outcome
    probe(u64 index, u64 key)
    {
        BP_DCHECK(index < tags.size(), "tagged-table index out of range");
        const bool cold = tags[index] == emptyTag && !listed(index);
        if (!access(index, key)) {
            return Outcome::Hit;
        }
        return cold ? Outcome::Cold : Outcome::Conflict;
    }

    /** Number of entries. */
    u64 size() const { return u64(1) << indexBits; }

    /** Aliasing occurrences / references so far. */
    const RatioStat &aliasing() const { return aliasStat; }

    /** Clear all entries and statistics. */
    void reset();

  private:
    /**
     * Marks an entry no reference has touched. It is also a valid
     * identity (a PC at or above 2^62 with at least two history
     * bits), so entries that really hold it are listed apart.
     */
    static constexpr u64 emptyTag = ~u64(0);

    /** reference() for the identity equal to emptyTag. */
    bool referenceEmptyTag(u64 index);

    /** Whether @p index is in emptyTagHolders. */
    bool listed(u64 index) const;

    /** One identity per entry; emptyTag until first referenced. */
    std::vector<u64> tags;

    /**
     * Entries the emptyTag identity was written to. One is still
     * held while its tag reads emptyTag, since no other reference
     * writes that tag and entries never empty again.
     */
    std::vector<u64> emptyTagHolders;
    RatioStat aliasStat;
    unsigned indexBits;
};

} // namespace bpred

