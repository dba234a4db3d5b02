/**
 * @file
 * Phase-split kernels for the skewed predictor family: the
 * vectorized f0..f4 bank-index fill and the table-driven resolve.
 *
 * Companion to predictors/block_kernel_simd.hh, which documents the
 * phase structure and the intrinsics policy. This header adds what
 * is specific to core/skew.hh:
 *
 *  - The fill. The H / H^-1 bit-mixing permutations are lifted to
 *    four 64-bit lanes, and one pass over the packed information
 *    vector feeds every bank of a group.
 *  - The vote. skewedVote() is the one definition of the majority
 *    vote and the Total / Partial / PartialLazy update policies. The
 *    block kernel's SkewedBlockState::step() calls it, and the transition
 *    tables are generated from it.
 *  - The resolve. The vote couples the banks, so a group's whole
 *    per-record update is a function of a few bits. One lookup in a
 *    transition table replaces the vote and policy arithmetic.
 *
 * Table layout, for NumBanks banks of CounterBits-bit counters:
 *
 *  - Key: bit 0 is the outcome; bank b's current counter sits at
 *    bits [1 + b * CounterBits, 1 + (b + 1) * CounterBits).
 *  - Entry (u16): bank b's next counter at bits
 *    [b * CounterBits, (b + 1) * CounterBits); the bank-write count
 *    at bits 12..14 (it keeps bankWrites(), and so the BPS1 bytes,
 *    exact); the overall-mispredict flag at bit 15.
 *
 * The fit rule: a geometry has a table when its key fits 11 bits
 * (NumBanks * CounterBits + 1 <= 11), so a table is at most 4 KiB.
 * That covers 1, 3 and 5 banks of 2-bit counters, 3 banks of up to
 * 3-bit counters and one bank of any width. Wider groups take the
 * block kernel instead. There is one table per geometry and
 * policy. Each is generated at compile time, is read-only and is
 * shared by every predictor, so it costs no per-predictor memory
 * and no snapshot field.
 *
 * Checked builds run the same table resolve. They verify every
 * precomputed index against the scalar index function, and every
 * looked-up entry against skewedVote() over the counters actually
 * read, and panic on either divergence. The split
 * SkewedPredictor::update() path and SimdMode::Scalar use no table,
 * so the contract tests compare the tables against independent
 * arithmetic.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstddef>

#include "core/skew.hh"
#include "core/skewed_predictor.hh"
#include "predictors/block_kernel_simd.hh"

namespace bpred
{

/**
 * True when the skew fill kernels can vectorize this geometry: the
 * index must fit the u32 arrays, the H permutation needs at least
 * two bits to mix, and the packed information vector's history shift
 * must match scalar packInfoVector() (which checks <= 44).
 */
constexpr bool
simdSkewGeometryOk(unsigned index_bits, unsigned history_bits)
{
    return simdIndexWidthOk(index_bits) && index_bits >= 2 &&
        history_bits <= 44;
}

#if BPRED_HAVE_AVX2

/** skewH() on four lanes; @p y pre-masked to @p n bits, n >= 2. */
[[gnu::target("avx2")]] inline __m256i
skewHAvx2(__m256i y, unsigned n)
{
    const __m128i top_shift = _mm_cvtsi32_si128(int(n - 1));
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i top = _mm256_and_si256(
        _mm256_xor_si256(_mm256_srl_epi64(y, top_shift), y), one);
    return _mm256_or_si256(_mm256_srli_epi64(y, 1),
                           _mm256_sll_epi64(top, top_shift));
}

/** skewHInverse() on four lanes; @p y pre-masked, n >= 2. */
[[gnu::target("avx2")]] inline __m256i
skewHInverseAvx2(__m256i y, unsigned n)
{
    const __m128i high_shift = _mm_cvtsi32_si128(int(n - 1));
    const __m128i next_shift = _mm_cvtsi32_si128(int(n - 2));
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i low = _mm256_and_si256(
        _mm256_xor_si256(_mm256_srl_epi64(y, high_shift),
                         _mm256_srl_epi64(y, next_shift)),
        one);
    const __m256i shifted = _mm256_and_si256(
        _mm256_slli_epi64(y, 1),
        _mm256_set1_epi64x(i64(mask(n))));
    return _mm256_or_si256(shifted, low);
}

/**
 * skewIndex(bank, packInfoVector(pc, history, history_bits), n) over
 * four lanes at a time, @p n = index_bits >= 2.
 */
[[gnu::target("avx2")]] inline void
fillSkewIndicesAvx2(unsigned bank, const u64 *pc, const u64 *history,
                    std::size_t n_records, unsigned history_bits,
                    unsigned index_bits, u32 *out)
{
    const unsigned n = index_bits;
    const __m256i low_mask = _mm256_set1_epi64x(i64(mask(n)));
    const __m256i history_mask =
        _mm256_set1_epi64x(i64(mask(history_bits)));
    const __m128i pack_shift = _mm_cvtsi32_si128(int(history_bits));
    const __m128i v2_shift = _mm_cvtsi32_si128(int(n));
    std::size_t i = 0;
    for (; i + 4 <= n_records; i += 4) {
        const __m256i address = _mm256_srli_epi64(
            _mm256_load_si256(
                reinterpret_cast<const __m256i *>(pc + i)),
            2);
        const __m256i hist = _mm256_and_si256(
            _mm256_load_si256(
                reinterpret_cast<const __m256i *>(history + i)),
            history_mask);
        const __m256i vector = _mm256_or_si256(
            _mm256_sll_epi64(address, pack_shift), hist);
        const __m256i v1 = _mm256_and_si256(vector, low_mask);
        const __m256i v2 = _mm256_and_si256(
            _mm256_srl_epi64(vector, v2_shift), low_mask);
        __m256i index;
        switch (bank) {
          case 0:
            index = _mm256_xor_si256(
                _mm256_xor_si256(skewHAvx2(v1, n),
                                 skewHInverseAvx2(v2, n)),
                v2);
            break;
          case 1:
            index = _mm256_xor_si256(
                _mm256_xor_si256(skewHAvx2(v1, n),
                                 skewHInverseAvx2(v2, n)),
                v1);
            break;
          case 2:
            index = _mm256_xor_si256(
                _mm256_xor_si256(skewHInverseAvx2(v1, n),
                                 skewHAvx2(v2, n)),
                v2);
            break;
          case 3:
            index = _mm256_xor_si256(
                _mm256_xor_si256(skewHInverseAvx2(v1, n),
                                 skewHAvx2(v2, n)),
                v1);
            break;
          case 4:
            index = _mm256_xor_si256(
                _mm256_xor_si256(skewHAvx2(v1, n), skewHAvx2(v2, n)),
                v2);
            break;
          default:
            skewIndexBankPanic();
        }
        simdStoreIndices(out + i, index);
    }
    for (; i < n_records; ++i) {
        const u64 vector =
            packInfoVector(pc[i], history[i], history_bits);
        out[i] =
            static_cast<u32>(u64(skewIndex(bank, vector, index_bits)));
    }
}

#endif // BPRED_HAVE_AVX2

/**
 * Phase 1 for one skewed bank: @p mode selects the AVX2 kernel or
 * the bit-identical scalar fallback over skewIndex().
 */
inline void
fillSkewIndices(SimdMode mode, unsigned bank, const u64 *pc,
                const u64 *history, std::size_t n_records,
                unsigned history_bits, unsigned index_bits, u32 *out)
{
#if BPRED_HAVE_AVX2
    if (mode == SimdMode::Avx2) {
        fillSkewIndicesAvx2(bank, pc, history, n_records,
                            history_bits, index_bits, out);
        return;
    }
#endif
    static_cast<void>(mode);
    for (std::size_t i = 0; i < n_records; ++i) {
        const u64 vector =
            packInfoVector(pc[i], history[i], history_bits);
        out[i] =
            static_cast<u32>(u64(skewIndex(bank, vector, index_bits)));
    }
}

#if BPRED_HAVE_AVX2

/**
 * Fused phase 1 for a whole bank group: every skewIndex() bank is an
 * xor of members of {H(v1), H^-1(v1), H(v2), H^-1(v2), v1, v2}, so
 * one pass that loads pc/history, packs the information vector, and
 * applies the four permutations feeds all banks at once instead of
 * redoing that work per bank. @p outs[bank] may be null to skip a
 * bank; @p address_out, when set, additionally stores the plain
 * addressIndex() from the already-loaded pc — e-gskew's bank 0 —
 * which makes the separate address pass free.
 */
[[gnu::target("avx2")]] inline void
fillSkewIndexGroupAvx2(const u64 *pc, const u64 *history,
                       std::size_t n_records, unsigned history_bits,
                       unsigned index_bits, unsigned num_banks,
                       u32 *const *outs, u32 *address_out)
{
    const unsigned n = index_bits;
    const __m256i low_mask = _mm256_set1_epi64x(i64(mask(n)));
    const __m256i history_mask =
        _mm256_set1_epi64x(i64(mask(history_bits)));
    const __m128i pack_shift = _mm_cvtsi32_si128(int(history_bits));
    const __m128i v2_shift = _mm_cvtsi32_si128(int(n));
    std::size_t i = 0;
    for (; i + 4 <= n_records; i += 4) {
        const __m256i address = _mm256_srli_epi64(
            _mm256_load_si256(
                reinterpret_cast<const __m256i *>(pc + i)),
            2);
        const __m256i hist = _mm256_and_si256(
            _mm256_load_si256(
                reinterpret_cast<const __m256i *>(history + i)),
            history_mask);
        const __m256i vector = _mm256_or_si256(
            _mm256_sll_epi64(address, pack_shift), hist);
        const __m256i v1 = _mm256_and_si256(vector, low_mask);
        const __m256i v2 = _mm256_and_si256(
            _mm256_srl_epi64(vector, v2_shift), low_mask);
        const __m256i h1 = skewHAvx2(v1, n);
        const __m256i hi1 = skewHInverseAvx2(v1, n);
        const __m256i h2 = skewHAvx2(v2, n);
        const __m256i hi2 = skewHInverseAvx2(v2, n);
        for (unsigned bank = 0; bank < num_banks; ++bank) {
            if (!outs[bank]) {
                continue;
            }
            __m256i index;
            switch (bank) {
              case 0:
                index = _mm256_xor_si256(_mm256_xor_si256(h1, hi2),
                                         v2);
                break;
              case 1:
                index = _mm256_xor_si256(_mm256_xor_si256(h1, hi2),
                                         v1);
                break;
              case 2:
                index = _mm256_xor_si256(_mm256_xor_si256(hi1, h2),
                                         v2);
                break;
              case 3:
                index = _mm256_xor_si256(_mm256_xor_si256(hi1, h2),
                                         v1);
                break;
              case 4:
                index = _mm256_xor_si256(_mm256_xor_si256(h1, h2),
                                         v2);
                break;
              default:
                skewIndexBankPanic();
            }
            simdStoreIndices(outs[bank] + i, index);
        }
        if (address_out) {
            simdStoreIndices(address_out + i,
                             _mm256_and_si256(address, low_mask));
        }
    }
    for (; i < n_records; ++i) {
        const u64 vector =
            packInfoVector(pc[i], history[i], history_bits);
        for (unsigned bank = 0; bank < num_banks; ++bank) {
            if (outs[bank]) {
                outs[bank][i] = static_cast<u32>(
                    u64(skewIndex(bank, vector, index_bits)));
            }
        }
        if (address_out) {
            address_out[i] = static_cast<u32>(
                u64(addressIndex(pc[i], index_bits)));
        }
    }
}

#endif // BPRED_HAVE_AVX2

/**
 * Mode dispatch for fillSkewIndexGroupAvx2(); the scalar fallback is
 * the per-record skewIndex()/addressIndex() reference, bit-identical
 * to the per-bank fills.
 */
inline void
fillSkewIndexGroup(SimdMode mode, const u64 *pc, const u64 *history,
                   std::size_t n_records, unsigned history_bits,
                   unsigned index_bits, unsigned num_banks,
                   u32 *const *outs, u32 *address_out)
{
#if BPRED_HAVE_AVX2
    if (mode == SimdMode::Avx2) {
        fillSkewIndexGroupAvx2(pc, history, n_records, history_bits,
                               index_bits, num_banks, outs,
                               address_out);
        return;
    }
#endif
    static_cast<void>(mode);
    for (std::size_t i = 0; i < n_records; ++i) {
        const u64 vector =
            packInfoVector(pc[i], history[i], history_bits);
        for (unsigned bank = 0; bank < num_banks; ++bank) {
            if (outs[bank]) {
                outs[bank][i] = static_cast<u32>(
                    u64(skewIndex(bank, vector, index_bits)));
            }
        }
        if (address_out) {
            address_out[i] = static_cast<u32>(
                u64(addressIndex(pc[i], index_bits)));
        }
    }
}

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
};

/**
 * The skewed family's vote and update policy over one bank group's
 * counter @p values for a conditional resolving @p taken. It is the
 * one definition behind SkewedBlockState::step() and the
 * transition tables below, so the two cannot drift; the split
 * SkewedPredictor::update() stays the independent reference. The
 * policy skips are data (the outcome and per-bank agreement), so
 * they combine as bitwise bools and fold into the next value
 * multiplicatively: no data-dependent branch for the host CPU to
 * mispredict. A skipped bank keeps its value and is not counted.
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
        const int up = int(taken) & int(value < max);
        const int down = int(!taken) & int(value > 0);
        vote.next[bank] = static_cast<u8>(value + write * (up - down));
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
 * outcome @p taken: skewedVote() over SatCounterArray's counter
 * convention (max 2^bits - 1, taken from 2^(bits - 1)).
 */
template <unsigned NumBanks, unsigned CounterBits>
constexpr u16
skewedEntry(const u8 (&values)[NumBanks], bool taken,
            UpdatePolicy policy)
{
    const SkewedVote<NumBanks> vote =
        skewedVote(values, taken, u8((1u << CounterBits) - 1),
                   u8(1u << (CounterBits - 1)), policy);
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

namespace detail
{

/**
 * The resolve span: per record, pack the outcome and every bank's
 * counter into a key, look up one entry, store each bank's next
 * value from it and tally its mispredict bit and write count.
 * @p group is an interleaved group's storage — bank b's counter i at
 * group[i * NumBanks + b] — so the address math is a lea. Unrolled
 * x2 with split accumulators: GCC does not unroll at -O2, and
 * pairing records overlaps their counter accesses. @p verify sees
 * every lookup before its stores (a no-op outside checked builds).
 * With @p WriteMask, record j's mispredict flag lands in @p mask[j].
 */
template <unsigned NumBanks, unsigned CounterBits, bool WriteMask,
          typename Verify>
inline void
resolveSkewedTableSpan(u8 *group, const u32 *const (&idx)[NumBanks],
                       const u8 *taken, std::size_t begin,
                       std::size_t end, const u16 *table, u64 &mis0,
                       u64 &mis1, u64 &writes0, u64 &writes1,
                       u8 *mask, Verify &verify)
{
    constexpr unsigned counter_max = (1u << CounterBits) - 1;
    const auto one = [&](std::size_t j, u64 &mis, u64 &writes) {
        const u8 outcome = taken[j];
        u8 *ptr[NumBanks] = {};
        u8 values[NumBanks] = {};
        unsigned key = outcome;
#pragma GCC unroll 8
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            ptr[bank] =
                group + std::size_t(idx[bank][j]) * NumBanks + bank;
            values[bank] = *ptr[bank];
            key |= unsigned(values[bank]) << (1 + bank * CounterBits);
        }
        const unsigned entry = table[key];
        verify(values, outcome, entry);
#pragma GCC unroll 8
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            *ptr[bank] =
                u8((entry >> (bank * CounterBits)) & counter_max);
        }
        const u8 wrong = u8(entry >> skewedEntryMispredictShift);
        if constexpr (WriteMask) {
            mask[j] = wrong;
        }
        mis += wrong;
        writes += (entry >> skewedEntryWritesShift) & 7;
    };
    std::size_t j = begin;
    for (; j + 2 <= end; j += 2) {
        one(j, mis0, writes0);
        one(j + 1, mis1, writes1);
    }
    for (; j < end; ++j) {
        one(j, mis0, writes0);
    }
}

/**
 * Call @p body.template operator()<CounterBits>() for the table
 * geometry @p counter_bits names.
 */
template <unsigned NumBanks, unsigned CounterBits = 1, typename Body>
inline void
withTableCounterBits(unsigned counter_bits, Body &&body)
{
    if constexpr (CounterBits <= 8 &&
                  skewedTableFits(NumBanks, CounterBits)) {
        if (counter_bits == CounterBits) {
            body.template operator()<CounterBits>();
            return;
        }
        withTableCounterBits<NumBanks, CounterBits + 1>(counter_bits,
                                                        body);
    } else {
        panic("skewed resolve: no transition table for this counter "
              "width");
    }
}

} // namespace detail

/**
 * Phases 2+3 for the skewed family: resolve @p n precomputed
 * conditionals against the interleaved bank group @p banks, whose
 * geometry must have a transition table (skewedTableFits; wider
 * groups take the block kernel). When @p prefetch_counters is
 * set (simdWantsCounterPrefetch over the group's footprint), the
 * pass runs in sub-batches, prefetching every bank's counter line
 * for the next sub-batch first; L1-resident groups run one flat
 * loop, since the prefetch instructions would be the overhead.
 * @p recompute(bank, j) is the scalar bank-index reference: checked
 * builds verify every precomputed index against it (see
 * noteIndexRepair in block_kernel_simd.hh) and every table lookup
 * against skewedVote(). A non-null @p mask receives conditional j's
 * overall mispredict flag in mask[j].
 */
template <unsigned NumBanks, typename RecomputeIndex>
inline void
resolveSkewedBanks(SatCounterBankGroup &banks,
                   const u32 *const (&idx)[NumBanks], const u8 *taken,
                   std::size_t n, UpdatePolicy policy,
                   bool prefetch_counters, ReplayCounters &counters,
                   u64 &bank_write_count, u8 *mask,
                   [[maybe_unused]] RecomputeIndex &&recompute)
{
    BP_CHECK(banks.numBanks() == NumBanks &&
                 banks.layout() == BankLayout::Interleaved &&
                 skewedTableFits(NumBanks, banks.width()),
             "resolveSkewedBanks: not an interleaved group with a "
             "transition table");
#ifdef BPRED_CHECKED
    for (std::size_t j = 0; j < n; ++j) {
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            if (idx[bank][j] != recompute(bank, j)) [[unlikely]] {
                noteIndexRepair();
            }
        }
    }
#endif
    u8 *const group = banks.bankView(0).values;
    u64 mis0 = 0;
    u64 mis1 = 0;
    u64 writes0 = 0;
    u64 writes1 = 0;
    // One instantiation per counter width and mask request (tested
    // once per call); the update policy is only which table is read.
    const auto run = [&]<unsigned CounterBits, bool WriteMask>() {
        const u16 *table =
            skewedTransitionTable<NumBanks, CounterBits>(policy);
#ifdef BPRED_CHECKED
        const auto verify = [policy](const u8(&values)[NumBanks],
                                     u8 outcome, unsigned entry) {
            verifySkewedEntry<NumBanks, CounterBits>(
                values, outcome != 0, entry, policy);
        };
#else
        const auto verify = [](const u8(&)[NumBanks], u8, unsigned) {};
#endif
        const auto span = [&](std::size_t begin, std::size_t end) {
            detail::resolveSkewedTableSpan<NumBanks, CounterBits,
                                           WriteMask>(
                group, idx, taken, begin, end, table, mis0, mis1,
                writes0, writes1, mask, verify);
        };
        if (!prefetch_counters) {
            span(0, n);
            return;
        }
        for (std::size_t at = 0; at < n; at += simdSubBatch) {
            const std::size_t end = std::min(n, at + simdSubBatch);
            const std::size_t prefetch_end =
                std::min(n, end + simdSubBatch);
            for (std::size_t j = end; j < prefetch_end; ++j) {
#pragma GCC unroll 8
                for (unsigned bank = 0; bank < NumBanks; ++bank) {
                    __builtin_prefetch(
                        group + std::size_t(idx[bank][j]) * NumBanks +
                            bank,
                        1);
                }
            }
            span(at, end);
        }
    };
    detail::withTableCounterBits<NumBanks>(
        banks.width(), [&]<unsigned CounterBits>() {
            if (mask) {
                run.template operator()<CounterBits, true>();
            } else {
                run.template operator()<CounterBits, false>();
            }
        });
    counters.conditionals += n;
    counters.mispredicts += mis0 + mis1;
    bank_write_count += writes0 + writes1;
}

} // namespace bpred
