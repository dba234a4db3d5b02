/**
 * @file
 * Phase-split kernels for the skewed predictor family: vectorized
 * f0..f4 bank-index fill and the multi-bank prefetch + resolve pass.
 *
 * Companion to predictors/block_kernel_simd.hh (which documents the
 * phase structure and the intrinsics policy); this header adds the
 * pieces specific to core/skew.hh — the H / H^-1 bit-mixing
 * permutations lifted to four 64-bit lanes, the packed information
 * vector, and the majority-vote resolve with the Total / Partial /
 * PartialLazy update policies in branchless form.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>

#include "core/skew.hh"
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

namespace detail
{

/**
 * The release resolve span for the skewed family: per record, a
 * majority vote over @p NumBanks counter reads followed by the
 * branchless Total / Partial / PartialLazy policy writes. The bank
 * geometry is hoisted to raw base pointers and a shared
 * threshold/max (the group is uniform); @p StrideConst bakes the
 * view stride in at compile time when it is the interleaved
 * NumBanks or the contiguous 1 — the common layouts — so the
 * address math is a lea, not an imul (StrideConst 0 falls back to
 * the runtime stride). Two-record unroll with split accumulators:
 * the compiler does not unroll this loop at -O2 and the
 * per-iteration dependency chains are short enough that pairing
 * records measurably overlaps their counter accesses. With
 * @p WriteMask, record j's overall mispredict flag lands in
 * @p mask[j].
 */
template <unsigned NumBanks, unsigned StrideConst, bool WriteMask>
inline void
resolveSkewedSpan(u8 *const (&base)[NumBanks], unsigned stride,
                  const u32 *const (&idx)[NumBanks], const u8 *taken,
                  std::size_t begin, std::size_t end, u8 max,
                  u8 threshold, bool partial, bool lazy, u64 &mis0,
                  u64 &mis1, u64 &writes0, u64 &writes1, u8 *mask)
{
    const auto one = [&](std::size_t j, u64 &mis, u64 &writes) {
        const u8 t = taken[j];
        u8 *ptr[NumBanks];
        u8 values[NumBanks];
        bool predictions[NumBanks];
        unsigned votes = 0;
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            const std::size_t offset = std::size_t(idx[bank][j]) *
                (StrideConst ? StrideConst : stride);
            ptr[bank] = base[bank] + offset;
            values[bank] = *ptr[bank];
            predictions[bank] = values[bank] >= threshold;
            votes += unsigned(predictions[bank]);
        }
        const bool outcome = t != 0;
        const bool overall = votes * 2 > NumBanks;
        const bool overall_correct = overall == outcome;
        const u8 saturated = u8(max * t);
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            const bool bank_correct = predictions[bank] == outcome;
            const u8 value = values[bank];
            const int skip_partial = int(partial) &
                int(overall_correct) & int(!bank_correct);
            const int skip_lazy = int(lazy) & int(bank_correct) &
                int(value == saturated);
            const int write = 1 & ~(skip_partial | skip_lazy);
            const int up = int(t) & int(value < max);
            const int down = int(t ^ 1) & int(value > 0);
            *ptr[bank] = u8(value + write * (up - down));
            writes += u64(write);
        }
        const u8 wrong = u8(overall != outcome);
        if constexpr (WriteMask) {
            mask[j] = wrong;
        }
        mis += wrong;
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
 * The three-bank resolve span fully scalarized: the per-bank arrays
 * of the generic span keep GCC from promoting everything to
 * registers, and three banks is the paper's configuration (gskewed
 * and e-gskew both), so the common case gets straight-line v0/v1/v2
 * code and a bitwise majority — measured ~25% faster than the
 * generic span on e-gskew. The update policy is a template
 * parameter too: Total drops the whole skip computation and Partial
 * (the paper's enhanced default) drops the lazy saturation check,
 * instead of ANDing runtime flags per bank per record. The mask
 * request is a template parameter for the same reason.
 */
template <unsigned StrideConst, bool Partial, bool Lazy, bool WriteMask>
inline void
resolveSkewed3Span(u8 *const (&base)[3], unsigned stride,
                   const u32 *const (&idx)[3], const u8 *taken,
                   std::size_t begin, std::size_t end, u8 max,
                   u8 threshold, u64 &mis0, u64 &mis1, u64 &writes0,
                   u64 &writes1, u8 *mask)
{
    u8 *const b0 = base[0];
    u8 *const b1 = base[1];
    u8 *const b2 = base[2];
    const u32 *const i0 = idx[0];
    const u32 *const i1 = idx[1];
    const u32 *const i2 = idx[2];
    const auto one = [&](std::size_t j, u64 &mis, u64 &writes) {
        const u8 t = taken[j];
        const unsigned s = StrideConst ? StrideConst : stride;
        u8 *const p0 = b0 + std::size_t(i0[j]) * s;
        u8 *const p1 = b1 + std::size_t(i1[j]) * s;
        u8 *const p2 = b2 + std::size_t(i2[j]) * s;
        const u8 v0 = *p0;
        const u8 v1 = *p1;
        const u8 v2 = *p2;
        const bool q0 = v0 >= threshold;
        const bool q1 = v1 >= threshold;
        const bool q2 = v2 >= threshold;
        const bool overall =
            bool((unsigned(q0) & unsigned(q1)) |
                 (unsigned(q2) & (unsigned(q0) | unsigned(q1))));
        const bool outcome = t != 0;
        const bool overall_correct = overall == outcome;
        const u8 saturated = u8(max * t);
        const auto update = [&](u8 *ptr, u8 value, bool prediction,
                                u64 &w) {
            const bool bank_correct = prediction == outcome;
            const int skip_partial = Partial
                ? int(overall_correct) & int(!bank_correct)
                : 0;
            const int skip_lazy = Lazy
                ? int(bank_correct) & int(value == saturated)
                : 0;
            const int write = 1 & ~(skip_partial | skip_lazy);
            const int up = int(t) & int(value < max);
            const int down = int(t ^ 1) & int(value > 0);
            *ptr = u8(value + write * (up - down));
            w += u64(write);
        };
        update(p0, v0, q0, writes);
        update(p1, v1, q1, writes);
        update(p2, v2, q2, writes);
        const u8 wrong = u8(overall != outcome);
        if constexpr (WriteMask) {
            mask[j] = wrong;
        }
        mis += wrong;
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

} // namespace detail

/**
 * Phases 2+3 for the skewed family: resolve @p n precomputed
 * conditionals against the @p NumBanks bank views. When
 * @p prefetch_counters is set (bank group too big to sit in L1 —
 * simdWantsCounterPrefetch over the group's total footprint), the
 * pass runs in sub-batches, prefetching every bank's counter line
 * for the next sub-batch first; L1-resident groups run one flat
 * loop, since the prefetch instructions themselves would be the
 * overhead. The vote / policy arithmetic is the branchless form of
 * the fused SkewedBlockState::step(), consuming precomputed indices;
 * @p recompute(bank, j) is the scalar bank-index reference used by
 * checked builds to verify (see noteIndexRepair in
 * block_kernel_simd.hh). A non-null @p mask receives conditional
 * j's overall mispredict flag in mask[j]. The banks must be one
 * uniform group (shared counter width and stride) — every caller's
 * are.
 */
template <unsigned NumBanks, typename RecomputeIndex>
inline void
resolveSkewedBanks(SatCounterArray::View (&banks)[NumBanks],
                   const u32 *const (&idx)[NumBanks], const u8 *taken,
                   std::size_t n, bool partial, bool lazy,
                   [[maybe_unused]] bool prefetch_counters,
                   ReplayCounters &counters, u64 &bank_write_count,
                   u8 *mask,
                   [[maybe_unused]] RecomputeIndex &&recompute)
{
    const u8 max = banks[0].max;
    const u8 threshold = banks[0].threshold;
    const unsigned stride = banks[0].stride;
    for (unsigned bank = 1; bank < NumBanks; ++bank) {
        BP_DCHECK(banks[bank].max == max &&
                      banks[bank].threshold == threshold &&
                      banks[bank].stride == stride,
                  "resolveSkewedBanks: non-uniform bank group");
    }

#ifdef BPRED_CHECKED
    // Checked builds keep the straight-line loop: per-record index
    // verification dominates anyway.
    u64 mispredicts = 0;
    u64 bank_writes = 0;
    for (std::size_t j = 0; j < n; ++j) {
        const bool outcome = taken[j] != 0;
        u64 indices[NumBanks];
        u8 values[NumBanks];
        bool bank_predictions[NumBanks];
        unsigned votes_taken = 0;
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            indices[bank] = idx[bank][j];
            if (indices[bank] != recompute(bank, j)) [[unlikely]] {
                noteIndexRepair();
            }
            values[bank] = banks[bank].value(indices[bank]);
            bank_predictions[bank] =
                values[bank] >= banks[bank].threshold;
            votes_taken += unsigned(bank_predictions[bank]);
        }
        const bool overall = votes_taken * 2 > NumBanks;
        const bool overall_correct = overall == outcome;
        const u8 saturated = static_cast<u8>(max * int(outcome));
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            const bool bank_correct =
                bank_predictions[bank] == outcome;
            const u8 value = values[bank];
            const int skip_partial = int(partial) &
                int(overall_correct) & int(!bank_correct);
            const int skip_lazy = int(lazy) & int(bank_correct) &
                int(value == saturated);
            const int write = 1 & ~(skip_partial | skip_lazy);
            const int up = int(outcome) & int(value < max);
            const int down = int(!outcome) & int(value > 0);
            banks[bank].at(indices[bank]) =
                static_cast<u8>(value + write * (up - down));
            bank_writes += u64(write);
        }
        mispredicts += u64(overall != outcome);
        if (mask) {
            mask[j] = u8(overall != outcome);
        }
    }
    counters.conditionals += n;
    counters.mispredicts += mispredicts;
    bank_write_count += bank_writes;
    return;
#else
    u8 *base[NumBanks];
    for (unsigned bank = 0; bank < NumBanks; ++bank) {
        base[bank] = banks[bank].values;
    }
    u64 mis0 = 0;
    u64 mis1 = 0;
    u64 writes0 = 0;
    u64 writes1 = 0;
    // One instantiation per mask request (tested once per call), so
    // a mask-free replay runs the same spans as ever.
    const auto run = [&]<bool WriteMask>() {
        const auto span = [&](std::size_t begin, std::size_t end) {
            if constexpr (NumBanks == 3) {
                const auto run3 = [&](auto stride_const,
                                      auto is_partial, auto is_lazy) {
                    detail::resolveSkewed3Span<stride_const(),
                                               is_partial(), is_lazy(),
                                               WriteMask>(
                        base, stride, idx, taken, begin, end, max,
                        threshold, mis0, mis1, writes0, writes1, mask);
                };
                const auto policy = [&](auto stride_const) {
                    const auto k3 =
                        std::integral_constant<bool, true>();
                    const auto k0 =
                        std::integral_constant<bool, false>();
                    if (lazy) {
                        run3(stride_const, k3, k3);
                    } else if (partial) {
                        run3(stride_const, k3, k0);
                    } else {
                        run3(stride_const, k0, k0);
                    }
                };
                if (stride == 3) {
                    policy(std::integral_constant<unsigned, 3>());
                } else if (stride == 1) {
                    policy(std::integral_constant<unsigned, 1>());
                } else {
                    policy(std::integral_constant<unsigned, 0>());
                }
            } else if (stride == NumBanks) {
                detail::resolveSkewedSpan<NumBanks, NumBanks,
                                          WriteMask>(
                    base, stride, idx, taken, begin, end, max,
                    threshold, partial, lazy, mis0, mis1, writes0,
                    writes1, mask);
            } else if (stride == 1) {
                detail::resolveSkewedSpan<NumBanks, 1, WriteMask>(
                    base, stride, idx, taken, begin, end, max,
                    threshold, partial, lazy, mis0, mis1, writes0,
                    writes1, mask);
            } else {
                detail::resolveSkewedSpan<NumBanks, 0, WriteMask>(
                    base, stride, idx, taken, begin, end, max,
                    threshold, partial, lazy, mis0, mis1, writes0,
                    writes1, mask);
            }
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
                for (unsigned bank = 0; bank < NumBanks; ++bank) {
                    __builtin_prefetch(
                        base[bank] +
                            std::size_t(idx[bank][j]) * stride,
                        1);
                }
            }
            span(at, end);
        }
    };
    if (mask) {
        run.template operator()<true>();
    } else {
        run.template operator()<false>();
    }
    counters.conditionals += n;
    counters.mispredicts += mis0 + mis1;
    bank_write_count += writes0 + writes1;
#endif
}

} // namespace bpred
