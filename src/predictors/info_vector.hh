/**
 * @file
 * The (address, history) information vector V and the standard
 * index functions computed from it.
 *
 * The paper defines V = (a_N, ..., a_2, h_k, ..., h_1): the branch
 * address bits above bit 1 (instructions are 4-byte aligned on the
 * traced MIPS machine, so a_1 a_0 carry no information),
 * concatenated above the k global-history bits. All predictors,
 * tagged shadow tables, and the skewing functions operate on this
 * vector, so its packing lives here, in one place.
 */

#pragma once

#include <cassert>

#include "support/bitops.hh"
#include "support/check.hh"
#include "support/types.hh"

namespace bpred
{

/**
 * Longest history an information-vector key holds: past it the
 * history shifts the address out of the 64-bit key (and at 64 bits
 * the shift itself is undefined).
 */
constexpr unsigned maxKeyHistoryBits = 44;

/**
 * Pack an (address, history) pair into the information vector
 * V = (a_N...a_2, h_k...h_1).
 *
 * The result doubles as the unique identity of a branch substream,
 * so it is also the key used by tagged tables and the unaliased
 * predictor. With @p history_bits up to 20 and word-aligned PCs
 * below 2^44 this is collision-free in 64 bits. Constructors bound
 * @p history_bits by maxKeyHistoryBits.
 *
 * @param pc Branch address (word-aligned; bits 1..0 are dropped).
 * @param history Global history register contents.
 * @param history_bits Number of history bits k to include.
 */
inline u64
packInfoVector(Addr pc, History history, HistWidth history_bits)
{
    BP_DCHECK(history_bits.get() <= maxKeyHistoryBits,
              "info vector history field overflows 64 bits");
    return ((pc >> 2) << history_bits.get()) |
        (history & mask(history_bits.get()));
}

/**
 * gshare index function (McFarling).
 *
 * XORs the global history into the low-order address bits. Per
 * McFarling's report (and footnote 1 of the paper), when the history
 * is *shorter* than the index the history bits are aligned with the
 * high-order end of the index. When the history is *longer* than the
 * index, the history is XOR-folded down to the index width first —
 * the natural generalization used by later predictors.
 *
 * @param pc Branch address (bits 1..0 dropped as alignment).
 * @param history Global history register contents.
 * @param history_bits Number of history bits in use.
 * @param index_bits log2 of the table size.
 */
inline BankIndex
gshareIndex(Addr pc, History history, unsigned history_bits,
            unsigned index_bits)
{
    assert(index_bits >= 1 && index_bits < 64);
    const u64 addr_part = (pc >> 2) & mask(index_bits);
    u64 hist_part = history & mask(history_bits);
    if (history_bits <= index_bits) {
        hist_part <<= (index_bits - history_bits);
    } else {
        hist_part = xorFold(hist_part, index_bits);
    }
    return {addr_part ^ hist_part, u64(1) << index_bits};
}

/**
 * gselect index function (GAs).
 *
 * Concatenates history bits above address bits. With a history at
 * least as long as the index, no address bits survive — exactly the
 * degenerate case the paper highlights for 12-bit history and small
 * tables.
 */
inline BankIndex
gselectIndex(Addr pc, History history, unsigned history_bits,
             unsigned index_bits)
{
    assert(index_bits >= 1 && index_bits < 64);
    const u64 table_size = u64(1) << index_bits;
    if (history_bits >= index_bits) {
        return {history & mask(index_bits), table_size};
    }
    const unsigned addr_bits = index_bits - history_bits;
    const u64 addr_part = (pc >> 2) & mask(addr_bits);
    return {((history & mask(history_bits)) << addr_bits) | addr_part,
            table_size};
}

/** Address-only bit-truncation index: (pc >> 2) mod 2^index_bits. */
inline BankIndex
addressIndex(Addr pc, unsigned index_bits)
{
    assert(index_bits >= 1 && index_bits < 64);
    return {(pc >> 2) & mask(index_bits), u64(1) << index_bits};
}

/** The index function of a single-table predictor. */
enum class TableIndex
{
    /** addressIndex(): the low address bits alone (bimodal). */
    Address,

    /** gshareIndex(): address bits XOR global history (gshare). */
    Xor,

    /** gselectIndex(): history bits above address bits (gselect). */
    Concat,
};

/**
 * The counter @p index selects for (@p pc, @p history). Kernels
 * call it with a constant @p index, where it folds to one function.
 */
inline u64
tableIndex(TableIndex index, Addr pc, History history,
           unsigned history_bits, unsigned index_bits)
{
    switch (index) {
      case TableIndex::Address:
        return addressIndex(pc, index_bits);
      case TableIndex::Xor:
        return gshareIndex(pc, history, history_bits, index_bits);
      case TableIndex::Concat:
        return gselectIndex(pc, history, history_bits, index_bits);
    }
    return 0;
}

} // namespace bpred

