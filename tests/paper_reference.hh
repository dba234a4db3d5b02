/**
 * @file
 * A textbook oracle for the single-table predictors and the skewed
 * family, written from their published definitions and sharing no
 * code with the library.
 *
 * Each single-table scheme is one tag-less table of 2^n saturating
 * counters, trained toward every conditional outcome, plus a global
 * history register (youngest outcome in bit 0; an unconditional
 * branch shifts in taken). The three schemes differ only in how a
 * branch address a (word-aligned, so a >> 2 carries the information)
 * and the k youngest history bits h pick a counter:
 *
 *  - bimodal [Smith '81]: the n low bits of a >> 2;
 *  - gshare [McFarling '93]: those bits XOR the history. A history
 *    shorter than the index sits at the index's high-order end; a
 *    longer one is folded, history bit j landing on index bit
 *    j mod n;
 *  - gselect (GAs): the k history bits above the n - k low bits of
 *    a >> 2, and only the n youngest history bits once k >= n.
 *
 * The skewed predictor (Skewed below) is the paper's §4: an odd
 * number of banks of 2^n counters, bank b indexed by f_b of the
 * information vector V (history in the low k bits, a >> 2 above),
 * a majority vote, and total or partial update; §6's e-gskew
 * indexes bank 0 by the address alone; §7's two extensions replace
 * each 2-bit counter with a private prediction bit plus a
 * hysteresis bit shared by an entry pair, or feed the banks a
 * per-address history instead of the global one.
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

/**
 * §4's mixing permutation on n >= 2 bits:
 * H(y_n, ..., y_1) = (y_n XOR y_1, y_n, ..., y_2).
 */
inline std::uint64_t
skewH(std::uint64_t y, unsigned n)
{
    std::uint64_t out = (bit(y, n - 1) ^ bit(y, 0)) << (n - 1);
    for (unsigned i = 0; i + 1 < n; ++i) {
        out |= bit(y, i + 1) << i;
    }
    return out;
}

/** The inverse of skewH(): y_1 = x_n XOR x_{n-1}, y_{i+1} = x_i. */
inline std::uint64_t
skewHInverse(std::uint64_t x, unsigned n)
{
    std::uint64_t out = bit(x, n - 1) ^ bit(x, n - 2);
    for (unsigned i = 0; i + 1 < n; ++i) {
        out |= bit(x, i) << (i + 1);
    }
    return out;
}

/**
 * Bits [from, from + n) of the information vector
 * V = (a_N, ..., a_2, h_k, ..., h_1) of a branch at @p pc under
 * @p history, of which V holds the @p k youngest bits.
 */
inline std::uint64_t
vectorBits(std::uint64_t pc, std::uint64_t history, unsigned k,
           unsigned from, unsigned n)
{
    const std::uint64_t a = pc >> 2;
    std::uint64_t field = 0;
    for (unsigned i = 0; i < n; ++i) {
        const unsigned at = from + i;
        field |= (at < k ? bit(history, at) : bit(a, at - k)) << i;
    }
    return field;
}

/**
 * The entry skewing function f_@p bank selects in a 2^@p n bank
 * (n >= 2). With V1 and V2 the two low n-bit substrings of V, §4
 * gives f0, f1 and f2; f3 and f4 extend the family to five banks
 * with the same structure:
 *
 *   f0 = H(V1) ^ H^-1(V2) ^ V2      f1 = H(V1) ^ H^-1(V2) ^ V1
 *   f2 = H^-1(V1) ^ H(V2) ^ V2      f3 = H^-1(V1) ^ H(V2) ^ V1
 *   f4 = H(V1) ^ H(V2) ^ V2
 */
inline std::uint64_t
skewSlot(unsigned bank, std::uint64_t pc, std::uint64_t history,
         unsigned n, unsigned k)
{
    const std::uint64_t v1 = vectorBits(pc, history, k, 0, n);
    const std::uint64_t v2 = vectorBits(pc, history, k, n, n);
    switch (bank) {
      case 0:
        return skewH(v1, n) ^ skewHInverse(v2, n) ^ v2;
      case 1:
        return skewH(v1, n) ^ skewHInverse(v2, n) ^ v1;
      case 2:
        return skewHInverse(v1, n) ^ skewH(v2, n) ^ v2;
      case 3:
        return skewHInverse(v1, n) ^ skewH(v2, n) ^ v1;
      default:
        return skewH(v1, n) ^ skewH(v2, n) ^ v2;
    }
}

/** Which banks train after a resolved branch (§4.1). */
enum class Update
{
    /** Every bank. */
    Total,

    /**
     * Every bank on a misprediction; on a correct prediction only
     * the banks that voted for the outcome.
     */
    Partial,

    /**
     * Partial, and a bank whose counter already sits at the
     * outcome's end is not written at all.
     */
    PartialLazy,
};

/** How each bank of a skewed predictor picks its entry. */
enum class Banks
{
    /** Bank b uses f_b (§4). */
    Skewed,

    /** e-gskew (§6): bank 0 uses the n low bits of a >> 2. */
    Enhanced,

    /** Every bank uses the gshare slot: replication, no skewing. */
    IdenticalGshare,
};

/** What one bank entry holds. */
enum class Entry
{
    /** A w-bit saturating counter starting at 0. */
    Counter,

    /**
     * §7's shared-hysteresis encoding: a prediction bit (start 0)
     * per entry and a hysteresis bit (start 1) per entry pair
     * {2i, 2i + 1}; together they are one 2-bit counter,
     * prediction bit high.
     */
    SharedHysteresis,
};

/** A skewed predictor's geometry and policies. */
struct SkewedShape
{
    unsigned banks = 3;
    unsigned n = 12;

    /** History length: global, or local when bhtBits > 0. */
    unsigned k = 12;

    unsigned counterBits = 2;
    Update update = Update::Partial;
    Banks index = Banks::Skewed;
    Entry entry = Entry::Counter;

    /**
     * 0 for the global history register. Otherwise §7's
     * per-address history: a table of 2^bhtBits k-bit local
     * histories (start 0), picked by the low bits of a >> 2.
     */
    unsigned bhtBits = 0;
};

/** The skewed family of §4, §6 and §7. */
class Skewed
{
  public:
    explicit Skewed(const SkewedShape &shape)
        : s(shape),
          top(shape.entry == Entry::Counter
                  ? (1u << shape.counterBits) - 1
                  : 3),
          half(shape.entry == Entry::Counter
                   ? 1u << (shape.counterBits - 1)
                   : 2),
          tables(shape.banks,
                 std::vector<std::uint8_t>(std::size_t(1) << shape.n, 0)),
          hysteresisBits(
              shape.entry == Entry::SharedHysteresis ? shape.banks : 0,
              std::vector<std::uint8_t>(std::size_t(1) << (shape.n - 1),
                                        1)),
          local(shape.bhtBits > 0 ? std::size_t(1) << shape.bhtBits : 0,
                0)
    {
    }

    /**
     * Resolve one conditional: vote, train the banks the update
     * policy picks, then record the outcome in the history. Returns
     * the vote.
     */
    bool
    train(std::uint64_t pc, bool taken)
    {
        // f0..f4 are the whole family, so at most five banks.
        const std::uint64_t h = historyFor(pc);
        std::uint64_t slots[5] = {};
        unsigned values[5] = {};
        unsigned taken_votes = 0;
        for (unsigned b = 0; b < s.banks; ++b) {
            slots[b] = slot(b, pc, h);
            values[b] = read(b, slots[b]);
            taken_votes += values[b] >= half ? 1 : 0;
        }
        const bool prediction = 2 * taken_votes > s.banks;
        for (unsigned b = 0; b < s.banks; ++b) {
            const bool bank_right = (values[b] >= half) == taken;
            if (s.update != Update::Total && prediction == taken &&
                !bank_right) {
                continue;
            }
            if (s.update == Update::PartialLazy && bank_right &&
                values[b] == (taken ? top : 0)) {
                continue;
            }
            unsigned next = values[b];
            if (taken && next < top) {
                ++next;
            } else if (!taken && next > 0) {
                --next;
            }
            write(b, slots[b], next);
            ++bankWrites;
        }
        if (s.bhtBits > 0) {
            std::uint16_t &entry = local[std::size_t(
                tableSlot(Index::Bimodal, pc, 0, s.bhtBits, 0))];
            const std::uint64_t next =
                (std::uint64_t(entry) << 1) | (taken ? 1 : 0);
            std::uint64_t kept = 0;
            for (unsigned i = 0; i < s.k; ++i) {
                kept |= bit(next, i) << i;
            }
            entry = std::uint16_t(kept);
        } else {
            global = (global << 1) | (taken ? 1 : 0);
        }
        return prediction;
    }

    /**
     * An unconditional branch: the global history records it as
     * taken; local histories hold conditionals only.
     */
    void
    unconditional()
    {
        if (s.bhtBits == 0) {
            global = (global << 1) | 1;
        }
    }

    /** Bank @p b: its counters, or its prediction bits. */
    const std::vector<std::uint8_t> &bank(unsigned b) const
    {
        return tables[b];
    }

    /** Bank @p b's pair-shared hysteresis bits. */
    const std::vector<std::uint8_t> &hysteresis(unsigned b) const
    {
        return hysteresisBits[b];
    }

    /** The per-address local histories, in table order. */
    const std::vector<std::uint16_t> &localHistories() const
    {
        return local;
    }

    /** The whole global history register. */
    std::uint64_t historyRegister() const { return global; }

    /** Bank entries written so far. */
    std::uint64_t writes() const { return bankWrites; }

  private:
    std::uint64_t
    historyFor(std::uint64_t pc) const
    {
        if (s.bhtBits == 0) {
            return global;
        }
        return local[std::size_t(
            tableSlot(Index::Bimodal, pc, 0, s.bhtBits, 0))];
    }

    std::uint64_t
    slot(unsigned b, std::uint64_t pc, std::uint64_t h) const
    {
        if (s.index == Banks::IdenticalGshare) {
            return tableSlot(Index::Gshare, pc, h, s.n, s.k);
        }
        if (s.index == Banks::Enhanced && b == 0) {
            return tableSlot(Index::Bimodal, pc, h, s.n, s.k);
        }
        return skewSlot(b, pc, h, s.n, s.k);
    }

    unsigned
    read(unsigned b, std::uint64_t i) const
    {
        if (s.entry == Entry::Counter) {
            return tables[b][std::size_t(i)];
        }
        return 2u * tables[b][std::size_t(i)] +
            hysteresisBits[b][std::size_t(i / 2)];
    }

    void
    write(unsigned b, std::uint64_t i, unsigned value)
    {
        if (s.entry == Entry::Counter) {
            tables[b][std::size_t(i)] = std::uint8_t(value);
            return;
        }
        tables[b][std::size_t(i)] = std::uint8_t(value / 2);
        hysteresisBits[b][std::size_t(i / 2)] = std::uint8_t(value % 2);
    }

    SkewedShape s;
    unsigned top;
    unsigned half;
    std::vector<std::vector<std::uint8_t>> tables;
    std::vector<std::vector<std::uint8_t>> hysteresisBits;
    std::vector<std::uint16_t> local;
    std::uint64_t global = 0;
    std::uint64_t bankWrites = 0;
};

} // namespace paper
