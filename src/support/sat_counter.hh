/**
 * @file
 * Saturating up/down counter automata used as branch predictors.
 */

#pragma once

#include <cassert>
#include <vector>

#include "support/aligned.hh"
#include "support/bitops.hh"
#include "support/check.hh"
#include "support/simd.hh"
#include "support/types.hh"

namespace bpred
{

class ByteReader;
class ByteWriter;

/**
 * An n-bit saturating counter (1 <= n <= 8).
 *
 * Counts up on taken, down on not-taken, saturating at the ends.
 * The predicted direction is the counter's top bit: a value in the
 * upper half predicts taken. A 1-bit counter degenerates to the
 * classic last-outcome predictor; the 2-bit counter is the standard
 * Smith automaton used throughout the paper.
 */
class SatCounter
{
  public:
    /**
     * @param width Counter width in bits (1..8).
     * @param initial Initial counter value; defaults to weakly
     *        not-taken (just below the midpoint), the conventional
     *        cold state.
     */
    explicit SatCounter(unsigned width = 2, u8 initial = 0)
        : value_(initial), width_(static_cast<u8>(width))
    {
        assert(width >= 1 && width <= 8);
        assert(initial <= maxValue());
    }

    /** Largest representable value. */
    u8 maxValue() const { return static_cast<u8>(mask(width_)); }

    /** Counter midpoint: values >= this predict taken. */
    u8 threshold() const { return static_cast<u8>(u8(1) << (width_ - 1)); }

    /** Current raw value. */
    u8 value() const { return value_; }

    /** Counter width in bits. */
    unsigned width() const { return width_; }

    /** Predicted direction. */
    bool predictTaken() const { return value_ >= threshold(); }

    /**
     * True if the counter is in a saturated (strong) state for its
     * current direction.
     */
    bool
    isStrong() const
    {
        return value_ == 0 || value_ == maxValue();
    }

    /** Train toward @p taken. */
    void
    update(bool taken)
    {
        if (taken) {
            if (value_ < maxValue()) {
                ++value_;
            }
        } else {
            if (value_ > 0) {
                --value_;
            }
        }
    }

    /** Reset to an arbitrary value. */
    void
    set(u8 new_value)
    {
        assert(new_value <= maxValue());
        value_ = new_value;
    }

    /** Initialize to weakly @p taken (closest value to the midpoint). */
    void
    setWeak(bool taken)
    {
        value_ = taken ? threshold() : static_cast<u8>(threshold() - 1);
    }

    /** Initialize to strongly @p taken (saturated). */
    void
    setStrong(bool taken)
    {
        value_ = taken ? maxValue() : 0;
    }

  private:
    u8 value_;
    u8 width_;
};

/**
 * A flat, cache-friendly array of saturating counters sharing one
 * width. This is the storage structure for all table-based
 * predictors; it avoids per-entry object overhead.
 */
class SatCounterArray
{
  public:
    /**
     * @param num_entries Number of counters.
     * @param width Bits per counter (1..8).
     * @param initial Initial value for every counter.
     */
    SatCounterArray(u64 num_entries, unsigned width, u8 initial = 0);

    /**
     * A raw-pointer view for inlined replay kernels: the storage
     * pointer and saturation bounds lifted into plain locals, so a
     * block loop can keep them in registers instead of re-loading
     * vector internals after every (char-typed, alias-everything)
     * counter store. predictTaken()/update() mirror the array's
     * methods exactly — the block-vs-scalar contract tests hold the
     * two implementations together. The view borrows: it must not
     * outlive the array or span a resize/reset.
     *
     * The stride widens the view over banked layouts: counter
     * @p index lives at values[index * stride], so the same kernel
     * code walks a flat array (stride 1) or one bank of an
     * interleaved SatCounterBankGroup (stride = bank count) without
     * a layout branch.
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

        /**
         * Train counter @p index toward @p taken. Same result as
         * the array's update(), computed branchlessly: @p taken is
         * data (not control) in replay loops, so a conditional
         * increment would mispredict on every hard-to-predict
         * branch — precisely the records a predictor study feeds.
         */
        void
        update(u64 index, bool taken)
        {
            u8 &v = at(index);
            // Bitwise (not short-circuit) combination: the whole
            // expression is straight-line ALU arithmetic.
            const int up = int(taken) & int(v < max);
            const int down = int(!taken) & int(v > 0);
            v = static_cast<u8>(v + up - down);
        }
    };

    /** Borrow a kernel view of this array (see View). */
    View
    view()
    {
        return {values.data(), maxCounterValue, thresholdValue, 1};
    }

    /** Number of counters. */
    u64 size() const { return values.size(); }

    /** Bits per counter. */
    unsigned width() const { return width_; }

    /** Total storage cost in bits (the hardware budget metric). */
    u64 storageBits() const { return size() * width_; }

    /** Predicted direction of counter @p index. */
    bool
    predictTaken(u64 index) const
    {
        BP_DCHECK(index < values.size(),
                  "counter read out of range");
        return values[index] >= thresholdValue;
    }

    /** Raw value of counter @p index. */
    u8
    value(u64 index) const
    {
        BP_DCHECK(index < values.size(),
                  "counter read out of range");
        return values[index];
    }

    /** Train counter @p index toward @p taken. */
    void
    update(u64 index, bool taken)
    {
        BP_DCHECK(index < values.size(),
                  "counter write out of range");
        u8 &v = values[index];
        if (taken) {
            if (v < maxCounterValue) {
                ++v;
            }
        } else {
            if (v > 0) {
                --v;
            }
        }
    }

    /** Set counter @p index to an explicit value. */
    void
    set(u64 index, u8 new_value)
    {
        BP_CHECK(index < values.size(),
                 "counter write out of range");
        BP_CHECK(new_value <= maxCounterValue,
                 "counter value exceeds its width");
        values[index] = new_value;
    }

    /** Reset every counter to @p initial. */
    void reset(u8 initial = 0);

    /**
     * Serialize geometry (entry count, width) and every counter
     * value (see support/serialize.hh for the encoding).
     */
    void saveState(ByteWriter &out) const;

    /**
     * Restore counter values written by saveState(). The stored
     * geometry must match this array's; every restored value must
     * be representable at this width. The whole run is validated
     * before any counter changes.
     *
     * @throws FatalError on a geometry mismatch, an out-of-range
     *         counter value, or truncation.
     */
    void loadState(ByteReader &in);

  private:
    std::vector<u8> values;
    u8 width_;
    u8 maxCounterValue;
    u8 thresholdValue;
};

/** Memory order of a SatCounterBankGroup. */
enum class BankLayout : u8
{
    /** Bank-major: each bank's counters contiguous (classic). */
    Planar,

    /**
     * Entry-major: counter (bank, index) lives at
     * index * numBanks + bank, so the banks' counters for one entry
     * share a cache line — the layout multi-bank probes (e-gskew's
     * per-branch 3-bank read) want when bank indices correlate, and
     * the one the phase-split replay kernels prefetch against.
     */
    Interleaved,
};

/**
 * All banks of a multi-bank predictor in one contiguous,
 * cache-line-aligned allocation, in either Planar or Interleaved
 * order (see BankLayout). Every bank shares one counter width.
 *
 * The layout is invisible to behaviour: per-bank access mirrors a
 * vector of SatCounterArray exactly (the skewed-predictor contract
 * tests pin the two), bank views carry the layout in View::stride so
 * replay kernels are layout-blind, and saveState() writes the same
 * bytes as one SatCounterArray::saveState() per bank — snapshots
 * taken before this class existed restore into it unchanged.
 */
class SatCounterBankGroup
{
  public:
    /**
     * @param num_banks Number of banks (>= 1).
     * @param entries_per_bank Counters per bank.
     * @param width Bits per counter (1..8), shared by all banks.
     * @param layout Memory order (see BankLayout).
     * @param initial Initial value for every counter.
     */
    SatCounterBankGroup(unsigned num_banks, u64 entries_per_bank,
                        unsigned width, BankLayout layout,
                        u8 initial = 0);

    /** Number of banks. */
    unsigned numBanks() const { return numBanks_; }

    /** Counters per bank. */
    u64 entriesPerBank() const { return entriesPerBank_; }

    /** Bits per counter. */
    unsigned width() const { return width_; }

    /** The memory order counters are stored in. */
    BankLayout layout() const { return layout_; }

    /** Total storage cost in bits across all banks. */
    u64
    storageBits() const
    {
        return u64(numBanks_) * entriesPerBank_ * width_;
    }

    /**
     * Borrow a kernel view of bank @p bank; the view's stride
     * encodes the layout (1 for Planar, numBanks for Interleaved).
     */
    SatCounterArray::View bankView(unsigned bank);

    /** Predicted direction of counter @p index in bank @p bank. */
    bool
    predictTaken(unsigned bank, u64 index) const
    {
        return values[offsetOf(bank, index)] >= thresholdValue;
    }

    /** Raw value of counter @p index in bank @p bank. */
    u8
    value(unsigned bank, u64 index) const
    {
        return values[offsetOf(bank, index)];
    }

    /** Train counter @p index of bank @p bank toward @p taken. */
    void
    update(unsigned bank, u64 index, bool taken)
    {
        u8 &v = values[offsetOf(bank, index)];
        if (taken) {
            if (v < maxCounterValue) {
                ++v;
            }
        } else {
            if (v > 0) {
                --v;
            }
        }
    }

    /** Set counter @p index of bank @p bank to an explicit value. */
    void set(unsigned bank, u64 index, u8 new_value);

    /** Reset every counter in every bank to @p initial. */
    void reset(u8 initial = 0);

    /**
     * Serialize every bank in bank order, each exactly as a
     * standalone SatCounterArray of the same geometry would (entry
     * count, width, raw values) — the BPS1 snapshot format predates
     * this class and must not change. An Interleaved group gathers
     * its banks with the transpose kernel @p mode resolves to (see
     * support/sat_counter_simd.hh); every mode writes the same bytes.
     */
    void saveState(ByteWriter &out, SimdMode mode = SimdMode::Auto) const;

    /**
     * Restore every bank from saveState() bytes. All banks are
     * validated (geometry, counter range) before any counter
     * changes.
     *
     * @throws FatalError on a geometry mismatch, an out-of-range
     *         counter value, or truncation.
     */
    void loadState(ByteReader &in, SimdMode mode = SimdMode::Auto);

  private:
    /** Storage slot of (bank, index) under the active layout. */
    u64
    offsetOf(unsigned bank, u64 index) const
    {
        BP_DCHECK(bank < numBanks_ && index < entriesPerBank_,
                  "bank counter access out of range");
        return layout_ == BankLayout::Planar
            ? u64(bank) * entriesPerBank_ + index
            : index * numBanks_ + bank;
    }

    AlignedVector<u8> values;
    u64 entriesPerBank_;
    unsigned numBanks_;
    BankLayout layout_;
    u8 width_;
    u8 maxCounterValue;
    u8 thresholdValue;
};

} // namespace bpred

