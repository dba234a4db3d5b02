/**
 * @file
 * The phase-split index fill for the skewed predictor family: the
 * f0..f4 bank hashes of core/skew.hh lifted to four 64-bit lanes.
 *
 * Companion to predictors/block_kernel_simd.hh, which documents the
 * phase structure and the intrinsics policy and holds the one
 * resolve (resolveBankGroup) every phase-split scheme shares. What
 * is specific to the skewed family is the fill: the H / H^-1
 * bit-mixing permutations in vector form, and one pass over the
 * packed information vector that feeds every bank of a group.
 */

#pragma once

#include <cstddef>

#include "core/skew.hh"
#include "predictors/block_kernel_simd.hh"

namespace bpred
{

/**
 * True when the skew fill kernels can vectorize this geometry: the
 * index must fit the u32 arrays, the H permutation needs at least
 * two bits to mix, and the packed information vector's history shift
 * must match scalar packInfoVector() (at most maxKeyHistoryBits).
 */
constexpr bool
simdSkewGeometryOk(unsigned index_bits, unsigned history_bits)
{
    return simdIndexWidthOk(index_bits) && index_bits >= 2 &&
        history_bits <= maxKeyHistoryBits;
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
 * fillSkewIndexGroupAvx2() where it is built. Callers reach it only
 * after resolveSimdMode() returned SimdMode::Avx2, which a build
 * without AVX2 never does.
 */
inline void
fillSkewIndexGroup([[maybe_unused]] const u64 *pc,
                   [[maybe_unused]] const u64 *history,
                   [[maybe_unused]] std::size_t n_records,
                   [[maybe_unused]] unsigned history_bits,
                   [[maybe_unused]] unsigned index_bits,
                   [[maybe_unused]] unsigned num_banks,
                   [[maybe_unused]] u32 *const *outs,
                   [[maybe_unused]] u32 *address_out)
{
#if BPRED_HAVE_AVX2
    fillSkewIndexGroupAvx2(pc, history, n_records, history_bits,
                           index_bits, num_banks, outs, address_out);
#else
    panic("fillSkewIndexGroup: built without AVX2");
#endif
}

} // namespace bpred
