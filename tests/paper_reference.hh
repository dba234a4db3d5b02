/**
 * @file
 * A textbook oracle for the single-table predictors, written from
 * their published definitions and sharing no code with the library.
 *
 * Each scheme is one tag-less table of 2^n saturating counters,
 * trained toward every conditional outcome, plus a global history
 * register (youngest outcome in bit 0; an unconditional branch
 * shifts in taken). The three schemes differ only in how a branch
 * address a (word-aligned, so a >> 2 carries the information) and
 * the k youngest history bits h pick a counter:
 *
 *  - bimodal [Smith '81]: the n low bits of a >> 2;
 *  - gshare [McFarling '93]: those bits XOR the history. A history
 *    shorter than the index sits at the index's high-order end; a
 *    longer one is folded, history bit j landing on index bit
 *    j mod n;
 *  - gselect (GAs): the k history bits above the n - k low bits of
 *    a >> 2, and only the n youngest history bits once k >= n.
 *
 * Everything is spelled out bit by bit, deliberately unlike the
 * library's mask-and-shift index functions, so a shared slip cannot
 * hide. Include only the standard library here: the point of the
 * oracle is that nothing it computes comes from src/.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace paper
{

/** How a single-table scheme maps (address, history) to a counter. */
enum class Index
{
    Bimodal,
    Gshare,
    Gselect,
};

/** Bit @p i of @p value as 0 or 1. */
inline std::uint64_t
bit(std::uint64_t value, unsigned i)
{
    return i < 64 ? (value >> i) & 1 : 0;
}

/**
 * The counter that scheme @p index selects in a 2^@p n table for a
 * branch at @p pc under @p history, of which it reads the @p k
 * youngest bits.
 */
inline std::uint64_t
tableSlot(Index index, std::uint64_t pc, std::uint64_t history,
          unsigned n, unsigned k)
{
    const std::uint64_t a = pc >> 2;
    std::uint64_t slot = 0;
    switch (index) {
      case Index::Bimodal:
        for (unsigned i = 0; i < n; ++i) {
            slot |= bit(a, i) << i;
        }
        break;
      case Index::Gshare:
        for (unsigned i = 0; i < n; ++i) {
            slot |= bit(a, i) << i;
        }
        for (unsigned j = 0; j < k; ++j) {
            const unsigned target = k <= n ? n - k + j : j % n;
            slot ^= bit(history, j) << target;
        }
        break;
      case Index::Gselect: {
        const unsigned used = k < n ? k : n;
        for (unsigned i = 0; i < n - used; ++i) {
            slot |= bit(a, i) << i;
        }
        for (unsigned j = 0; j < used; ++j) {
            slot |= bit(history, j) << (n - used + j);
        }
        break;
      }
    }
    return slot;
}

/**
 * One tag-less table of 2^n w-bit saturating counters, all
 * starting at 0 (strongly not-taken), under one index function.
 */
class SingleTable
{
  public:
    SingleTable(Index index, unsigned index_bits, unsigned history_bits,
                unsigned counter_bits)
        : index_(index), n(index_bits), k(history_bits),
          top((1u << counter_bits) - 1),
          half(1u << (counter_bits - 1)),
          table(std::size_t(1) << index_bits, 0)
    {
    }

    /** The counter a branch at @p pc selects under today's history. */
    std::size_t
    slot(std::uint64_t pc) const
    {
        return std::size_t(tableSlot(index_, pc, history, n, k));
    }

    /** Predict: a counter in its upper half says taken. */
    bool predict(std::uint64_t pc) const { return table[slot(pc)] >= half; }

    /**
     * Resolve one conditional: train its counter one step toward
     * @p taken (saturating), then shift the outcome into the history.
     * Returns the prediction made before training.
     */
    bool
    train(std::uint64_t pc, bool taken)
    {
        std::uint8_t &counter = table[slot(pc)];
        const bool prediction = counter >= half;
        if (taken && counter < top) {
            ++counter;
        } else if (!taken && counter > 0) {
            --counter;
        }
        history = (history << 1) | (taken ? 1 : 0);
        return prediction;
    }

    /** An unconditional branch: the history records it as taken. */
    void unconditional() { history = (history << 1) | 1; }

    /** The counters, in index order. */
    const std::vector<std::uint8_t> &counters() const { return table; }

    /** The whole history register. */
    std::uint64_t historyRegister() const { return history; }

  private:
    Index index_;
    unsigned n;
    unsigned k;
    unsigned top;
    unsigned half;
    std::vector<std::uint8_t> table;
    std::uint64_t history = 0;
};

} // namespace paper
