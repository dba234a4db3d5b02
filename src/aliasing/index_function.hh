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

    /** Compute the table index for (@p pc, @p history). */
    u64
    operator()(Addr pc, History history) const
    {
        switch (kind) {
          case IndexKind::GShare:
            return gshareIndex(pc, history, historyBits, indexBits);
          case IndexKind::GSelect:
            return gselectIndex(pc, history, historyBits, indexBits);
          case IndexKind::Address:
            return addressIndex(pc, indexBits);
          default:
            return skewed(pc, history);
        }
    }

    /** Human-readable name, e.g. "gshare/10/h4". */
    std::string name() const;

  private:
    /** The skew kinds: one bank of the skewing functions. */
    u64 skewed(Addr pc, History history) const;
};

} // namespace bpred

