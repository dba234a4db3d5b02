/**
 * @file
 * A first-class description of a predictor-table index function.
 *
 * The aliasing experiments (Figures 1 and 2) measure miss ratios of
 * *tagged shadow tables* driven by the same index functions the
 * predictors use; this type lets those experiments name an index
 * function as data.
 */

#pragma once

#include <string>

#include "core/skew.hh"
#include "predictors/info_vector.hh"
#include "support/types.hh"

namespace bpred
{

/** Which hashing family an IndexFunction applies. */
enum class IndexKind
{
    GShare,   ///< XOR of address and history (high-aligned).
    GSelect,  ///< Concatenation of history above address bits.
    Address,  ///< Bit truncation of the address alone.
    Skew0,    ///< Skewing function f0.
    Skew1,    ///< Skewing function f1.
    Skew2,    ///< Skewing function f2.
};

/**
 * An index function resolved once for a loop that indexes with it
 * many times, so no per-reference dispatch on its kind remains.
 *
 * gshare, gselect and the address index are one branch-free recipe,
 * ((pc >> 2) & addrMask) ^ (fold(history & histMask) << shift), where
 * fold XORs foldRounds n-bit fields of the history together. gselect
 * fits because its concatenation is an XOR of disjoint fields. The
 * skew kinds go through skewIndex() on the information vector.
 */
struct ResolvedIndex
{
    u64 addrMask = 0;
    u64 histMask = 0;
    /** mask(n) for the n-bit index. */
    u64 indexMask = 0;
    unsigned indexBits = 0;
    unsigned historyBits = 0;
    unsigned shift = 0;
    unsigned foldRounds = 1;
    /** Bank of skewIndex() for the skew kinds, or -1. */
    int skewBank = -1;

    /** The table index for (@p pc, @p history). */
    u64
    operator()(Addr pc, History history) const
    {
        if (skewBank >= 0) {
            return skewIndex(static_cast<unsigned>(skewBank),
                             packInfoVector(pc, history, historyBits),
                             indexBits);
        }
        const u64 h = history & histMask;
        u64 folded = 0;
        for (unsigned r = 0; r < foldRounds; ++r) {
            folded ^= (h >> (r * indexBits)) & indexMask;
        }
        return ((pc >> 2) & addrMask) ^ (folded << shift);
    }
};

/**
 * A concrete index function: a hashing family plus the index width
 * and history length it is instantiated with.
 */
struct IndexFunction
{
    IndexKind kind = IndexKind::GShare;

    /** log2 of the table size being indexed. */
    unsigned indexBits = 10;

    /** Global-history length fed to the function. */
    unsigned historyBits = 4;

    /** This function with its kind resolved (see ResolvedIndex). */
    ResolvedIndex resolve() const;

    /** Compute the table index for (@p pc, @p history). */
    u64
    operator()(Addr pc, History history) const
    {
        return resolve()(pc, history);
    }

    /** Human-readable name, e.g. "gshare/10/h4". */
    std::string name() const;
};

} // namespace bpred
