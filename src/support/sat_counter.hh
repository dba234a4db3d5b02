/**
 * @file
 * The saturating counter every predictor here is built from: its one
 * update rule, and the table that stores counters by the bank.
 */

#pragma once

#include "support/aligned.hh"
#include "support/check.hh"
#include "support/types.hh"

namespace bpred
{

class ByteReader;
class ByteWriter;

/**
 * @name The n-bit saturating counter (1 <= n <= 8)
 *
 * A counter counts up on taken and down on not-taken, saturating at
 * 0 and at counterMax(n). It predicts taken from counterThreshold(n)
 * up, i.e. by its top bit. A 1-bit counter is the classic
 * last-outcome predictor; the 2-bit counter is the Smith automaton
 * the paper uses throughout.
 *
 * Every structure here stores its counters as plain u8 values and
 * trains them with counterStep() (or its counterDelta() where a
 * data condition gates the step): the single-bank tables, the
 * skewed banks' vote and partial update (§4), hybrid's chooser,
 * yags' exception entries and the unaliased and FA-LRU references.
 * tests/paper_reference.hh spells the rule out again on its own, as
 * the independent oracle.
 *
 * A cold counter is coldCounter (0): strongly not-taken for every
 * width >= 2. Every direction table of the paper's organizations
 * starts there, as does the oracle; tables that start biased on
 * purpose (agree, bi-mode, hybrid's chooser, yags' choice table)
 * name their own start. The one exception among the paper's tables
 * is §7's shared-hysteresis storage: its entry pairs start at
 * virtual counter 1 (prediction bit 0, hysteresis bit 1), weakly
 * not-taken. The hysteresis bit is shared by two entries, so it
 * starts weak, and each entry's private prediction bit follows the
 * first outcome it sees rather than the second.
 * @{
 */

/** Largest value of a @p width-bit counter: 2^width - 1. */
constexpr u8
counterMax(unsigned width)
{
    return static_cast<u8>((1u << width) - 1);
}

/** Smallest value of a @p width-bit counter that predicts taken. */
constexpr u8
counterThreshold(unsigned width)
{
    return static_cast<u8>(1u << (width - 1));
}

/** A counter table's start unless its scheme names another. */
inline constexpr u8 coldCounter = 0;

/**
 * The change (+1, 0 or -1) one step toward @p taken makes to counter
 * @p value, saturating at 0 and @p max (counterMax() of its width).
 * @p taken must be 0 or 1: a bool, or an int the caller knows is a
 * flag (a mispredict mask byte), which then costs no compare to
 * normalise. A caller whose step is gated by a data condition
 * multiplies the delta by that 0/1 flag. Branchless: the outcome is
 * data, not control, in the replay loops, so a conditional increment
 * would mispredict on every hard-to-predict branch — precisely the
 * records a predictor study feeds.
 */
constexpr int
counterDelta(u8 value, int taken, u8 max)
{
    // Bitwise (not short-circuit) combination: the whole expression
    // is straight-line ALU arithmetic.
    const int up = taken & int(value < max);
    const int down = (taken ^ 1) & int(value > 0);
    return up - down;
}

/** Counter @p value after one step toward @p taken (counterDelta()). */
constexpr u8
counterStep(u8 value, bool taken, u8 max)
{
    return static_cast<u8>(value + counterDelta(value, taken, max));
}

/** @} */

/**
 * One or more banks of saturating counters sharing one width, in one
 * contiguous, cache-line-aligned allocation. A flat table is the
 * 1-bank case; the skewed family's banks are one group.
 *
 * Banks are interleaved (entry-major): counter (bank, index) lives
 * at index * numBanks + bank, so the counters the majority vote
 * reads for one entry share a cache line — the layout multi-bank
 * probes (e-gskew's per-branch 3-bank read) want when bank indices
 * correlate, and the one the phase-split replay kernels prefetch
 * against. Bank views carry the bank count as their stride, so
 * replay kernels walk a flat table and one bank of a group with the
 * same code.
 */
class SatCounterArray
{
  public:
    /**
     * @param entries_per_bank Counters per bank.
     * @param width Bits per counter (1..8), shared by all banks.
     * @param initial Initial value for every counter.
     * @param num_banks Number of banks (>= 1).
     */
    SatCounterArray(u64 entries_per_bank, unsigned width,
                    u8 initial = coldCounter, unsigned num_banks = 1);

    /**
     * A raw-pointer view of one bank for inlined replay kernels: the
     * storage pointer and saturation bounds lifted into plain locals,
     * so a block loop can keep them in registers instead of
     * re-loading table internals after every (char-typed,
     * alias-everything) counter store. The view borrows: it must not
     * outlive the table or span a reset. Counter @p index of the
     * bank lives at values[index * stride].
     */
    struct View
    {
        u8 *values;
        u8 max;
        u8 threshold;
        u32 stride = 1;

        /** Storage slot of counter @p index under this stride. */
        u8 &at(u64 index) const { return values[index * stride]; }

        /** Predicted direction of counter @p index. */
        bool
        predictTaken(u64 index) const
        {
            return at(index) >= threshold;
        }

        /** Raw value of counter @p index. */
        u8 value(u64 index) const { return at(index); }

        /** Train counter @p index toward @p taken (counterStep()). */
        void
        update(u64 index, bool taken)
        {
            u8 &v = at(index);
            v = counterStep(v, taken, max);
        }
    };

    /**
     * Borrow a kernel view of a flat table (see View). Its stride is
     * the literal 1, so a block loop over a flat table indexes
     * without a multiply.
     */
    View
    view()
    {
        BP_CHECK(numBanks_ == 1, "flat view of a banked table");
        return {values.data(), maxCounterValue, thresholdValue, 1};
    }

    /** Borrow a kernel view of bank @p bank (see View). */
    View
    view(unsigned bank)
    {
        BP_CHECK(bank < numBanks_, "bank view out of range");
        return {values.data() + bank, maxCounterValue, thresholdValue,
                numBanks_};
    }

    /** Number of banks. */
    unsigned numBanks() const { return numBanks_; }

    /** Counters per bank. */
    u64 entriesPerBank() const { return entriesPerBank_; }

    /** Counters across all banks. */
    u64 size() const { return values.size(); }

    /** Bits per counter. */
    unsigned width() const { return width_; }

    /** Total storage cost in bits (the hardware budget metric). */
    u64 storageBits() const { return size() * width_; }

    /** Predicted direction of counter @p index in bank @p bank. */
    bool
    predictTaken(unsigned bank, u64 index) const
    {
        return value(bank, index) >= thresholdValue;
    }

    /** Raw value of counter @p index in bank @p bank. */
    u8
    value(unsigned bank, u64 index) const
    {
        BP_DCHECK(inRange(bank, index), "counter read out of range");
        return values[offsetOf(bank, index)];
    }

    /** Train counter @p index of bank @p bank toward @p taken. */
    void
    update(unsigned bank, u64 index, bool taken)
    {
        BP_DCHECK(inRange(bank, index), "counter write out of range");
        u8 &v = values[offsetOf(bank, index)];
        v = counterStep(v, taken, maxCounterValue);
    }

    /** Set counter @p index of bank @p bank to an explicit value. */
    void
    set(unsigned bank, u64 index, u8 new_value)
    {
        BP_CHECK(inRange(bank, index), "counter write out of range");
        BP_CHECK(new_value <= maxCounterValue,
                 "counter value exceeds its width");
        values[offsetOf(bank, index)] = new_value;
    }

    /**
     * @name The flat table
     * A 1-bank table's counter @p index is values[index]: no bank
     * stride to multiply by.
     */
    /** @{ */
    bool
    predictTaken(u64 index) const
    {
        return value(index) >= thresholdValue;
    }

    u8
    value(u64 index) const
    {
        BP_DCHECK(flatInRange(index), "flat counter read out of range");
        return values[index];
    }

    void
    update(u64 index, bool taken)
    {
        BP_DCHECK(flatInRange(index), "flat counter write out of range");
        u8 &v = values[index];
        v = counterStep(v, taken, maxCounterValue);
    }

    void
    set(u64 index, u8 new_value)
    {
        BP_CHECK(flatInRange(index), "flat counter write out of range");
        BP_CHECK(new_value <= maxCounterValue,
                 "counter value exceeds its width");
        values[index] = new_value;
    }
    /** @} */

    /** Reset every counter in every bank to @p initial. */
    void reset(u8 initial = coldCounter);

    /**
     * Serialize every bank in bank order as one run: entry count
     * (u64), width (u8), then the bank's counters, one byte each (see
     * support/serialize.hh for the encoding). A flat table writes
     * one run. The banks are gathered apart with the transpose
     * kernel resolveSimdMode() picks (support/sat_counter_simd.hh);
     * every kernel writes the same bytes.
     */
    void saveState(ByteWriter &out) const;

    /**
     * Restore every bank from saveState() bytes. The stored geometry
     * must match this table's and every counter must be
     * representable at this width; all banks are validated before
     * any counter changes.
     *
     * @throws FatalError on a geometry mismatch, an out-of-range
     *         counter value, or truncation.
     */
    void loadState(ByteReader &in);

  private:
    bool
    inRange(unsigned bank, u64 index) const
    {
        return bank < numBanks_ && index < entriesPerBank_;
    }

    /** A flat access: a 1-bank table and an index inside it. */
    bool
    flatInRange(u64 index) const
    {
        return numBanks_ == 1 && index < entriesPerBank_;
    }

    /** Storage slot of (bank, index). */
    u64
    offsetOf(unsigned bank, u64 index) const
    {
        return index * numBanks_ + bank;
    }

    AlignedVector<u8> values;
    u64 entriesPerBank_;
    unsigned numBanks_;
    u8 width_;
    u8 maxCounterValue;
    u8 thresholdValue;
};

} // namespace bpred
