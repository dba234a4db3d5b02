/**
 * @file
 * AVX2 line pass of the text trace scanner (trace/text_source.hh).
 *
 * Trace writers emit one shape of line: "C|U <hex pc> T|N" (native)
 * or "<decimal pc> <dir>" (CBP), single separators, no comment.
 * This pass takes exactly those lines. It classifies the text 64
 * bytes at a time into newline and blank masks, and accepts a line
 * only when its masks show the shape: blanks exactly between the
 * fields (one trailing CR or blank before the newline is allowed),
 * a kind and a direction byte from the dialect's set, and a pc of
 * 1..16 digits. Every byte of an accepted line is thus a separator
 * or a checked field byte, so a '#' or any other stray byte sends
 * the line elsewhere. The pc is validated and converted in one
 * vector step — digits to values, right-aligned by one byte
 * shuffle, and combined pairwise (multiply-add) — instead of a loop
 * over its digits. Any other line, and every line near the end of
 * the text, stops the pass and goes to the scalar field walk, which
 * is the reference: on an accepted line both produce the same
 * record, and every error comes from the scalar walk.
 *
 * Intrinsics policy (enforced by bp_lint's simd-isolation rule):
 * <immintrin.h> and the _mm* intrinsics appear only in *_simd files,
 * inside BPRED_HAVE_AVX2, in functions carrying the avx2 target
 * attribute.
 */

#pragma once

#include <cstddef>

#include "support/simd.hh"
#include "trace/branch_record.hh"

#if BPRED_HAVE_AVX2
#include <immintrin.h>
#endif

namespace bpred
{

#if BPRED_HAVE_AVX2

namespace textscan
{

/**
 * pshufb controls that right-align a field of d digits (1..16) in a
 * 16-byte register: the 16 bytes at alignControl + d move digit i
 * to lane 16 - d + i and zero the lanes before it.
 */
alignas(32) inline constexpr u8 alignControl[32] = {
    0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
    0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
    0,    1,    2,    3,    4,    5,    6,    7,
    8,    9,    10,   11,   12,   13,   14,   15,
};

/** Lanes of @p bytes inside [@p lo, @p hi] (signed compare). */
[[gnu::target("avx2")]] inline __m128i
inRange(__m128i bytes, char lo, char hi)
{
    return _mm_and_si128(_mm_cmpgt_epi8(bytes, _mm_set1_epi8(char(lo - 1))),
                         _mm_cmplt_epi8(bytes, _mm_set1_epi8(char(hi + 1))));
}

/** Bit i set where byte i of @p low, then @p high, is @p c. */
[[gnu::target("avx2")]] inline u64
bytesEqual(__m256i low, __m256i high, char c)
{
    const __m256i byte = _mm256_set1_epi8(c);
    return u64(u32(_mm256_movemask_epi8(_mm256_cmpeq_epi8(low, byte)))) |
        u64(u32(_mm256_movemask_epi8(_mm256_cmpeq_epi8(high, byte))))
        << 32;
}

/** The low @p count bits set (count <= 16). */
inline unsigned
lowBits(unsigned count)
{
    return (1u << count) - 1;
}

/**
 * The @p count (1..16) hex digits at @p digits as a number, or false
 * when any of them is not a hex digit. Reads 16 bytes.
 */
[[gnu::target("avx2")]] inline bool
hexField(const char *digits, unsigned count, u64 &value)
{
    const __m128i raw =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(digits));
    const __m128i lower = _mm_or_si128(raw, _mm_set1_epi8(0x20));
    const __m128i decimal = inRange(raw, '0', '9');
    const __m128i letter = inRange(lower, 'a', 'f');
    const unsigned valid = unsigned(
        _mm_movemask_epi8(_mm_or_si128(decimal, letter)));
    if ((valid & lowBits(count)) != lowBits(count)) {
        return false;
    }
    const __m128i nibbles =
        _mm_blendv_epi8(_mm_sub_epi8(lower, _mm_set1_epi8('a' - 10)),
                        _mm_sub_epi8(raw, _mm_set1_epi8('0')), decimal);
    const __m128i aligned = _mm_shuffle_epi8(
        nibbles, _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                     alignControl + count)));
    // Byte pairs (high, low) -> 16 * high + low, then to bytes.
    const __m128i pairs =
        _mm_maddubs_epi16(aligned, _mm_set1_epi16(0x0110));
    u64 bigEndian = 0;
    _mm_storel_epi64(reinterpret_cast<__m128i *>(&bigEndian),
                     _mm_packus_epi16(pairs, pairs));
    value = __builtin_bswap64(bigEndian);
    return true;
}

/**
 * The @p count (1..16) decimal digits at @p digits as a number, or
 * false when any of them is not a digit. Reads 16 bytes.
 */
[[gnu::target("avx2")]] inline bool
decimalField(const char *digits, unsigned count, u64 &value)
{
    const __m128i raw =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(digits));
    const unsigned valid =
        unsigned(_mm_movemask_epi8(inRange(raw, '0', '9')));
    if ((valid & lowBits(count)) != lowBits(count)) {
        return false;
    }
    const __m128i aligned = _mm_shuffle_epi8(
        _mm_sub_epi8(raw, _mm_set1_epi8('0')),
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(alignControl +
                                                         count)));
    // 16 digits -> 8 of 0..99 -> 4 of 0..9999 -> 2 of 0..99999999.
    const __m128i d2 = _mm_maddubs_epi16(aligned, _mm_set1_epi16(0x010a));
    const __m128i d4 = _mm_madd_epi16(d2, _mm_set1_epi32(0x00010064));
    const __m128i d4x16 = _mm_packus_epi32(d4, d4);
    const __m128i d8 = _mm_madd_epi16(d4x16, _mm_set1_epi32(0x00012710));
    value = u64(u32(_mm_cvtsi128_si32(d8))) * 100000000u +
        u32(_mm_extract_epi32(d8, 1));
    return true;
}

} // namespace textscan

/**
 * Scan writer-shaped lines from @p at into @p out (at most @p max),
 * advancing @p at and @p line_no past each. Stops at the first line
 * it does not take — leaving @p at on that line's first byte — or
 * when fewer than blockBytes + 16 bytes remain.
 *
 * The text is classified one 64-byte block at a time (two 32-byte
 * compares per byte class); the lines whose newline falls in the
 * block are then walked from the masks alone, so finding the next
 * line never waits on a load. Lines are split at most 80 bytes
 * ahead: a pc field read needs 16 bytes past its start.
 *
 * @return Records written.
 */
[[gnu::target("avx2")]] inline std::size_t
scanShapedLinesAvx2(const char *&at, const char *end, bool native,
                    BranchRecord *out, std::size_t max, u64 &line_no)
{
    using namespace textscan;
    constexpr std::ptrdiff_t blockBytes = 64;
    std::size_t n = 0;
    while (n < max && end - at >= blockBytes + 16) {
        const __m256i low =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(at));
        const __m256i high = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(at + 32));
        u64 newlines = bytesEqual(low, high, '\n');
        const u64 blanks = bytesEqual(low, high, ' ') |
            bytesEqual(low, high, '\t') | bytesEqual(low, high, '\r');
        unsigned start = 0;
        for (; newlines != 0 && n < max; newlines &= newlines - 1) {
            const unsigned stop = unsigned(__builtin_ctzll(newlines));
            const unsigned length = stop - start;
            const u64 lineMask = (u64(1) << length) - 1;
            const char *const line = at + start;
            if (length < 3) {
                break;
            }
            const u64 lineBlanks = (blanks >> start) & lineMask;
            // A trailing blank (the CR of a CRLF) ends the content.
            const unsigned content =
                length - unsigned((lineBlanks >> (length - 1)) & 1);
            const u64 fieldBlanks =
                lineBlanks & ((u64(1) << content) - 1);
            const char direction = line[content - 1];
            u64 pc = 0;
            if (native) {
                const unsigned digits = content - 4;
                const char kind = line[0];
                const bool conditional = kind == 'C';
                const bool taken = direction == 'T';
                const bool shaped = (content >= 5) & (digits <= 16) &
                    (fieldBlanks == (2u | (u64(1) << (content - 2)))) &
                    ((conditional & (taken | (direction == 'N'))) |
                     ((kind == 'U') & taken));
                if (!shaped || !hexField(line + 2, digits, pc)) {
                    break;
                }
                out[n++] = {pc, taken, conditional};
            } else {
                const unsigned digits = content - 2;
                const char folded = char(direction | 0x20);
                const bool taken = (direction == '1') | (folded == 't');
                const bool shaped = (digits >= 1) & (digits <= 16) &
                    (fieldBlanks == u64(1) << (content - 2)) &
                    (taken | (direction == '0') | (folded == 'n'));
                if (!shaped || !decimalField(line, digits, pc)) {
                    break;
                }
                out[n++] = {pc, taken, true};
            }
            ++line_no;
            start = stop + 1;
        }
        at += start;
        if (newlines != 0 && n < max) {
            return n; // stopped at a line this pass does not take
        }
        if (start == 0) {
            break; // no newline in the block: a long line
        }
    }
    return n;
}

#endif // BPRED_HAVE_AVX2

} // namespace bpred
