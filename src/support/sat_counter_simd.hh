/**
 * @file
 * Bank transpose kernels for SatCounterBankGroup snapshots.
 *
 * An Interleaved bank group stores counter (bank, index) at
 * index * banks + bank, but BPS1 writes each bank as one flat run of
 * counters (the SatCounterArray encoding), so every save gathers the
 * banks apart and every load scatters them back together. The scalar
 * loops below are the reference and the only path of a scalar-only
 * build; the AVX2 kernels move 32 entries of every bank per step
 * with in-lane byte shuffles (one pshufb per bank and source
 * register) and leave the remainder to the scalar loop, so the two
 * modes write identical bytes (test_sat_counter sweeps banks, widths
 * and lengths across the vector body and the tail).
 *
 * Intrinsics policy (enforced by bp_lint's simd-isolation rule):
 * <immintrin.h> and the _mm* intrinsics appear only in *_simd files,
 * inside BPRED_HAVE_AVX2, in functions carrying the avx2 target
 * attribute.
 */

#pragma once

#include <cstddef>

#include "support/simd.hh"
#include "support/types.hh"

#if BPRED_HAVE_AVX2
#include <immintrin.h>
#endif

namespace bpred
{

/**
 * Scalar gather of entries [@p from, @p entries): bank b's counter i
 * goes to flat[b * stride + i].
 */
inline void
gatherBanksScalar(const u8 *interleaved, unsigned banks, u64 from,
                  u64 entries, u8 *flat, std::size_t stride)
{
    for (unsigned bank = 0; bank < banks; ++bank) {
        u8 *run = flat + bank * stride;
        for (u64 index = from; index < entries; ++index) {
            run[index] = interleaved[index * banks + bank];
        }
    }
}

/** Scalar inverse of gatherBanksScalar() over [@p from, @p entries). */
inline void
scatterBanksScalar(const u8 *flat, std::size_t stride, unsigned banks,
                   u64 from, u64 entries, u8 *interleaved)
{
    for (unsigned bank = 0; bank < banks; ++bank) {
        const u8 *run = flat + bank * stride;
        for (u64 index = from; index < entries; ++index) {
            interleaved[index * banks + bank] = run[index];
        }
    }
}

#if BPRED_HAVE_AVX2

/**
 * pshufb controls for one 16-entry block of Banks interleaved banks
 * (16 * Banks bytes, i.e. Banks source registers). Output byte k
 * takes source byte control[k], or zero when the control's top bit
 * is set.
 */
template <unsigned Banks>
struct BankShuffleMasks
{
    /** gather[b][r]: bank b's entries found in source register r. */
    u8 gather[Banks][Banks][16];

    /** scatter[r][b]: bytes of output register r taken from bank b. */
    u8 scatter[Banks][Banks][16];
};

template <unsigned Banks>
constexpr BankShuffleMasks<Banks>
makeBankShuffleMasks()
{
    BankShuffleMasks<Banks> masks{};
    for (unsigned a = 0; a < Banks; ++a) {
        for (unsigned b = 0; b < Banks; ++b) {
            for (unsigned k = 0; k < 16; ++k) {
                // Entry k of bank a sits at block byte k * Banks + a;
                // register b holds block bytes [16b, 16b + 16).
                const unsigned source = k * Banks + a;
                masks.gather[a][b][k] =
                    source / 16 == b ? u8(source % 16) : u8(0x80);
                // Output register a's byte k is block byte 16a + k,
                // which belongs to bank (16a + k) % Banks.
                const unsigned target = 16 * a + k;
                masks.scatter[a][b][k] =
                    target % Banks == b ? u8(target / Banks) : u8(0x80);
            }
        }
    }
    return masks;
}

template <unsigned Banks>
inline constexpr BankShuffleMasks<Banks> bankShuffleMasks =
    makeBankShuffleMasks<Banks>();

/** One 16-byte control row, broadcast to both lanes. */
[[gnu::target("avx2")]] inline __m256i
loadShuffleControl(const u8 *control)
{
    return _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(control)));
}

/**
 * Vector body of gatherBanksScalar() for Banks banks: lane 0 handles
 * entries [i, i + 16), lane 1 entries [i + 16, i + 32). Returns the
 * number of entries done (a multiple of 32).
 */
template <unsigned Banks>
[[gnu::target("avx2")]] inline u64
gatherBanksAvx2(const u8 *interleaved, u64 entries, u8 *flat,
                std::size_t stride)
{
    const BankShuffleMasks<Banks> &masks = bankShuffleMasks<Banks>;
    __m256i control[Banks][Banks];
    for (unsigned bank = 0; bank < Banks; ++bank) {
        for (unsigned r = 0; r < Banks; ++r) {
            control[bank][r] = loadShuffleControl(masks.gather[bank][r]);
        }
    }
    const u64 body = entries & ~u64(31);
    for (u64 i = 0; i < body; i += 32) {
        const u8 *block = interleaved + i * Banks;
        __m256i source[Banks];
        for (unsigned r = 0; r < Banks; ++r) {
            const __m128i low = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(block + 16 * r));
            const __m128i high = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(
                    block + 16 * Banks + 16 * r));
            source[r] = _mm256_inserti128_si256(
                _mm256_castsi128_si256(low), high, 1);
        }
        for (unsigned bank = 0; bank < Banks; ++bank) {
            __m256i run =
                _mm256_shuffle_epi8(source[0], control[bank][0]);
            for (unsigned r = 1; r < Banks; ++r) {
                run = _mm256_or_si256(
                    run, _mm256_shuffle_epi8(source[r], control[bank][r]));
            }
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(flat + bank * stride + i),
                run);
        }
    }
    return body;
}

/** Vector body of scatterBanksScalar(); see gatherBanksAvx2(). */
template <unsigned Banks>
[[gnu::target("avx2")]] inline u64
scatterBanksAvx2(const u8 *flat, std::size_t stride, u64 entries,
                 u8 *interleaved)
{
    const BankShuffleMasks<Banks> &masks = bankShuffleMasks<Banks>;
    __m256i control[Banks][Banks];
    for (unsigned r = 0; r < Banks; ++r) {
        for (unsigned bank = 0; bank < Banks; ++bank) {
            control[r][bank] = loadShuffleControl(masks.scatter[r][bank]);
        }
    }
    const u64 body = entries & ~u64(31);
    for (u64 i = 0; i < body; i += 32) {
        __m256i run[Banks];
        for (unsigned bank = 0; bank < Banks; ++bank) {
            run[bank] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(flat + bank * stride +
                                                  i));
        }
        u8 *block = interleaved + i * Banks;
        for (unsigned r = 0; r < Banks; ++r) {
            __m256i out = _mm256_shuffle_epi8(run[0], control[r][0]);
            for (unsigned bank = 1; bank < Banks; ++bank) {
                out = _mm256_or_si256(
                    out, _mm256_shuffle_epi8(run[bank], control[r][bank]));
            }
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(block + 16 * r),
                _mm256_castsi256_si128(out));
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(block + 16 * Banks + 16 * r),
                _mm256_extracti128_si256(out, 1));
        }
    }
    return body;
}

#endif // BPRED_HAVE_AVX2

/**
 * Gather @p banks interleaved banks of @p entries counters each into
 * flat runs @p stride bytes apart, on the kernel @p mode selects (a
 * resolved mode: Avx2 or Scalar). Only three banks (the paper's
 * e-gskew and gskewed) take the vector kernel; other counts run the
 * scalar loop.
 */
inline void
gatherBanks(SimdMode mode, const u8 *interleaved, unsigned banks,
            u64 entries, u8 *flat, std::size_t stride)
{
    u64 done = 0;
#if BPRED_HAVE_AVX2
    if (mode == SimdMode::Avx2 && banks == 3) {
        done = gatherBanksAvx2<3>(interleaved, entries, flat, stride);
    }
#else
    static_cast<void>(mode);
#endif
    gatherBanksScalar(interleaved, banks, done, entries, flat, stride);
}

/** Inverse of gatherBanks(). */
inline void
scatterBanks(SimdMode mode, const u8 *flat, std::size_t stride,
             unsigned banks, u64 entries, u8 *interleaved)
{
    u64 done = 0;
#if BPRED_HAVE_AVX2
    if (mode == SimdMode::Avx2 && banks == 3) {
        done = scatterBanksAvx2<3>(flat, stride, entries, interleaved);
    }
#else
    static_cast<void>(mode);
#endif
    scatterBanksScalar(flat, stride, banks, done, entries, interleaved);
}

} // namespace bpred
