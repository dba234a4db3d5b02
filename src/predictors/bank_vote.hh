/**
 * @file
 * The majority vote and update policies of a counter-bank group,
 * and the transition tables generated from them.
 *
 * A bank group is NumBanks tag-less counter banks read together for
 * one branch: the skewed family's three or five banks, and a
 * single-table predictor (bimodal, gshare, gselect) as the group of
 * one bank under UpdatePolicy::Total. skewedVote() is the one
 * definition of the vote and the policies; the block kernels call
 * it, and the phase-split resolve (block_kernel_simd.hh) reads the
 * transition tables generated from it.
 *
 * Table layout, for NumBanks banks of CounterBits-bit counters:
 *
 *  - Key: bit 0 is the outcome; bank b's current counter sits at
 *    bits [1 + b * CounterBits, 1 + (b + 1) * CounterBits).
 *  - Entry (u16): bank b's next counter at bits
 *    [b * CounterBits, (b + 1) * CounterBits); the bank-write count
 *    at bits 12..14 (it keeps the skewed predictor's bankWrites(),
 *    and so its BPS1 bytes, exact); the overall-mispredict flag at
 *    bit 15.
 *
 * The fit rule: a geometry has a table when its key fits 11 bits
 * (NumBanks * CounterBits + 1 <= 11), so a table is at most 4 KiB.
 * That covers 1, 3 and 5 banks of 2-bit counters, 3 banks of up to
 * 3-bit counters and one bank of any width. There is one table per
 * geometry and policy. Each is generated at compile time, is
 * read-only and is shared by every predictor, so it costs no
 * per-predictor memory and no snapshot field.
 */

#pragma once

#include <array>
#include <cstddef>

#include "support/logging.hh"
#include "support/sat_counter.hh"
#include "support/types.hh"

namespace bpred
{

/** How bank counters are trained after a resolved branch (§4.1). */
enum class UpdatePolicy
{
    /** Every bank trains toward the outcome, unconditionally. */
    Total,

    /**
     * A bank that mispredicted is left untouched when the overall
     * (majority) prediction was correct; its entry is presumed to
     * belong to a different substream. On an overall misprediction
     * all banks train. This is the policy the paper recommends.
     */
    Partial,

    /**
     * Partial, plus: an agreeing bank already saturated in the
     * right direction is not rewritten. Prediction behaviour is
     * identical to Partial (a saturated counter does not move);
     * what changes is write traffic — an answer to the paper's
     * §7 question about further update policies, in the direction
     * the Alpha EV8 design later took to cut predictor array
     * write ports. Compare bankWrites() across policies.
     */
    PartialLazy,
};

/**
 * One resolved conditional's effect on a bank group: the majority
 * vote, every bank's next counter value, and the number of banks the
 * update policy writes (what bankWrites() counts; a write may leave
 * a saturated counter unchanged).
 */
template <unsigned NumBanks>
struct SkewedVote
{
    u8 next[NumBanks];
    bool prediction;
    u8 writes;

    /**
     * Bit b set: the partial policy left bank b alone (it disagreed
     * with a correct vote).
     */
    u8 protectedBanks;

    /**
     * Bit b set: the lazy policy left bank b alone (it agreed and
     * was already saturated toward the outcome).
     */
    u8 saturatedBanks;
};

/**
 * The vote and update policy over one bank group's counter
 * @p values for a conditional resolving @p taken; every bank the
 * policy writes takes one counterStep(). It is the one
 * definition behind the skewed predictor's block step and split
 * update() and the transition tables below, so none of them can
 * drift; the textbook oracle in tests/paper_reference.hh is the
 * independent reference. The policy skips are data (the outcome and
 * per-bank agreement), so they combine as bitwise bools and fold
 * into the next value multiplicatively: no data-dependent branch
 * for the host CPU to mispredict. A skipped bank keeps its value and
 * is not counted.
 */
template <unsigned NumBanks>
constexpr SkewedVote<NumBanks>
skewedVote(const u8 (&values)[NumBanks], bool taken, u8 max,
           u8 threshold, UpdatePolicy policy)
{
    SkewedVote<NumBanks> vote{};
    bool bank_predictions[NumBanks] = {};
    unsigned votes_taken = 0;
#pragma GCC unroll 8
    for (unsigned bank = 0; bank < NumBanks; ++bank) {
        bank_predictions[bank] = values[bank] >= threshold;
        votes_taken += unsigned(bank_predictions[bank]);
    }
    vote.prediction = votes_taken * 2 > NumBanks;
    const bool overall_correct = vote.prediction == taken;
    const bool partial = policy != UpdatePolicy::Total;
    const bool lazy = policy == UpdatePolicy::PartialLazy;
    const u8 saturated = static_cast<u8>(max * int(taken));
    unsigned writes = 0;
#pragma GCC unroll 8
    for (unsigned bank = 0; bank < NumBanks; ++bank) {
        const bool bank_correct = bank_predictions[bank] == taken;
        const u8 value = values[bank];
        const int skip_partial = int(partial) & int(overall_correct) &
            int(!bank_correct);
        const int skip_lazy = int(lazy) & int(bank_correct) &
            int(value == saturated);
        const int write = 1 & ~(skip_partial | skip_lazy);
        vote.next[bank] = static_cast<u8>(
            value + write * counterDelta(value, taken, max));
        vote.protectedBanks |= static_cast<u8>(skip_partial << bank);
        vote.saturatedBanks |= static_cast<u8>(skip_lazy << bank);
        writes += unsigned(write);
    }
    vote.writes = static_cast<u8>(writes);
    return vote;
}

/**
 * Widest transition-table key: a table has at most 2^11 u16 entries
 * (4 KiB), so it stays L1-resident beside the counters it serves.
 */
constexpr unsigned skewedTableMaxKeyBits = 11;

/**
 * True when a group of @p num_banks banks of @p counter_bits-bit
 * counters has a transition table: every bank's counter plus the
 * outcome bit fits skewedTableMaxKeyBits.
 */
constexpr bool
skewedTableFits(unsigned num_banks, unsigned counter_bits)
{
    return num_banks * counter_bits + 1 <= skewedTableMaxKeyBits;
}

/** Table-entry bit of the 3-bit write count. */
constexpr unsigned skewedEntryWritesShift = 12;

/** Table-entry bit of the overall-mispredict flag. */
constexpr unsigned skewedEntryMispredictShift = 15;

/**
 * The table entry (see file comment) for counter @p values and
 * outcome @p taken: skewedVote() over the counter convention of
 * support/sat_counter.hh at CounterBits bits.
 */
template <unsigned NumBanks, unsigned CounterBits>
constexpr u16
skewedEntry(const u8 (&values)[NumBanks], bool taken,
            UpdatePolicy policy)
{
    const SkewedVote<NumBanks> vote =
        skewedVote(values, taken, counterMax(CounterBits),
                   counterThreshold(CounterBits), policy);
    unsigned entry =
        unsigned(vote.prediction != taken) << skewedEntryMispredictShift |
        unsigned(vote.writes) << skewedEntryWritesShift;
    for (unsigned bank = 0; bank < NumBanks; ++bank) {
        entry |= unsigned(vote.next[bank]) << (bank * CounterBits);
    }
    return static_cast<u16>(entry);
}

namespace detail
{

/** One geometry's table per UpdatePolicy, in enumerator order. */
template <unsigned NumBanks, unsigned CounterBits>
using SkewedTables = std::array<
    std::array<u16, std::size_t(1) << (NumBanks * CounterBits + 1)>, 3>;

/** Evaluate skewedEntry() for every key under every policy. */
template <unsigned NumBanks, unsigned CounterBits>
constexpr SkewedTables<NumBanks, CounterBits>
makeSkewedTables()
{
    static_assert(skewedTableFits(NumBanks, CounterBits) &&
                  CounterBits >= 1 && CounterBits <= 8);
    SkewedTables<NumBanks, CounterBits> tables{};
    for (unsigned policy = 0; policy < tables.size(); ++policy) {
        for (std::size_t key = 0; key < tables[policy].size(); ++key) {
            u8 values[NumBanks] = {};
            for (unsigned bank = 0; bank < NumBanks; ++bank) {
                values[bank] = u8((key >> (1 + bank * CounterBits)) &
                                  ((1u << CounterBits) - 1));
            }
            tables[policy][key] = skewedEntry<NumBanks, CounterBits>(
                values, (key & 1) != 0, UpdatePolicy(policy));
        }
    }
    return tables;
}

/** Generated at compile time; read-only data. */
template <unsigned NumBanks, unsigned CounterBits>
inline constexpr SkewedTables<NumBanks, CounterBits> skewedTables =
    makeSkewedTables<NumBanks, CounterBits>();

} // namespace detail

/** The shared transition table of one geometry under @p policy. */
template <unsigned NumBanks, unsigned CounterBits>
inline const u16 *
skewedTransitionTable(UpdatePolicy policy)
{
    return detail::skewedTables<NumBanks, CounterBits>
        .at(std::size_t(policy))
        .data();
}

/**
 * Checked-build verification of one lookup: @p entry, looked up for
 * the counter @p values and outcome @p taken, must be skewedEntry()
 * of them. Divergence is a key-packing or table bug: panic.
 */
template <unsigned NumBanks, unsigned CounterBits>
inline void
verifySkewedEntry(const u8 (&values)[NumBanks], bool taken,
                  unsigned entry, UpdatePolicy policy)
{
    const u16 want =
        skewedEntry<NumBanks, CounterBits>(values, taken, policy);
    if (entry != want) [[unlikely]] {
        panic("skewed resolve: transition-table entry diverged from "
              "skewedVote() (table or key bug)");
    }
}

} // namespace bpred
