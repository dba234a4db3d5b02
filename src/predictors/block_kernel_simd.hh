/**
 * @file
 * The phase-split block replay kernels: vectorized index
 * computation, software prefetch, and a fed serial resolve.
 *
 * The block kernel (block_kernel.hh) interleaves index math,
 * counter access and history updates per branch. This header splits
 * each block into phases:
 *
 *  0. Compaction — one branchless pass over the records lifts the
 *     conditional branches into structure-of-arrays form (address,
 *     pre-branch history, outcome) in the session's ReplayScratch,
 *     advancing a speculative history from the in-block taken bits.
 *     History is outcome-determined — it advances on record bits,
 *     never on predictions — so within one replayBlock() call the
 *     speculation is exact, not a guess.
 *  1. Index fill — the per-record table indices for the whole block
 *     are materialized with AVX2 kernels (four 64-bit lanes per
 *     step) or their bit-identical scalar fallbacks, which also
 *     handle the non-multiple-of-4 tail.
 *  2. Prefetch — before each ~64-record sub-batch resolves, the
 *     next sub-batch's counter lines are requested with
 *     __builtin_prefetch, hiding table-lookup latency behind the
 *     current sub-batch's ALU work.
 *  3. Resolve — the serial pass consuming precomputed indices:
 *     counter read, vote, policy update, misprediction tally, and
 *     (when the session asked) the per-conditional mispredict mask.
 *     Checked builds recompute each index from the stored history
 *     through the scalar index function and abort on divergence
 *     (noteIndexRepair) — phase 0's speculation is exact by
 *     construction, so a mismatch is a fill-kernel bug.
 *
 * Dispatch: predictors enter these kernels only when the resolved
 * SimdMode (support/simd.hh) is a vector mode and the table geometry
 * fits 32-bit indices; otherwise they run the block kernel.
 * Byte-identity of both with the split predict()/update() reference
 * is pinned by test_predictor_contract for every registered scheme.
 *
 * Intrinsics policy (enforced by bp_lint's simd-isolation rule):
 * <immintrin.h> and the _mm* intrinsics appear only in *_simd files,
 * inside BPRED_HAVE_AVX2, in functions carrying the avx2 target
 * attribute.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "predictors/info_vector.hh"
#include "predictors/predictor.hh"
#include "predictors/replay_scratch.hh"
#include "support/logging.hh"
#include "support/sat_counter.hh"
#include "trace/branch_record.hh"

#if BPRED_HAVE_AVX2
#include <immintrin.h>
#endif

namespace bpred
{

/** Records per resolve sub-batch; phase 2 prefetches one ahead. */
constexpr std::size_t simdSubBatch = 64;

/** Prefetch distance (in conditionals) used by record-walking
 * resolvers that cannot batch (the hybrid's component walk). */
constexpr std::size_t simdPrefetchDistance = 64;

/**
 * Records per phase tile: the phases run tile-by-tile inside each
 * replay block so the staging arrays a tile touches (~21 KiB at
 * 1024 records) stay L1-resident between the compact, fill and
 * resolve passes instead of making L2 round trips per phase.
 * History threads through tile boundaries, so tiling is invisible
 * to results.
 */
constexpr std::size_t simdTileRecords = 1024;

/**
 * Counter-table footprint (bytes) above which the resolve pass
 * prefetches the next sub-batch's counter lines. Smaller tables are
 * L1-resident under replay, where a per-record prefetch instruction
 * is pure overhead (~10% of the resolve pass); half of a typical
 * 32 KiB L1D is where misses start to appear in practice.
 */
constexpr u64 simdCounterPrefetchMinBytes = 16 * 1024;

/** True when a table of @p table_bytes warrants phase-2 prefetch. */
constexpr bool
simdWantsCounterPrefetch(u64 table_bytes)
{
    return table_bytes > simdCounterPrefetchMinBytes;
}

/**
 * The saturating-counter transition function as a nibble LUT held
 * in one register: bits [(value*2 + taken)*4, +4) hold the next
 * counter value. Valid for counter widths up to 3 bits (max <= 7 —
 * 8 states x 2 outcomes x 4 bits = 64); the resolve loops fall back
 * to branchless arithmetic for wider counters. Replaces the
 * two-compare update chain with one shift+mask on the hot path.
 */
inline u64
counterTransitionLut(u8 max)
{
    u64 lut = 0;
    for (unsigned value = 0; value <= max; ++value) {
        for (unsigned taken = 0; taken < 2; ++taken) {
            const unsigned next = taken
                ? (value < max ? value + 1 : value)
                : (value > 0 ? value - 1 : 0);
            lut |= u64(next) << ((value * 2 + taken) * 4);
        }
    }
    return lut;
}

/**
 * True when @p index_bits fits the u32 index arrays with headroom
 * for the vector kernels' 64-bit lane math. Wider tables (never seen
 * in practice — 2^31 two-bit counters is half a GiB per table) use
 * the block kernel.
 */
constexpr bool
simdIndexWidthOk(unsigned index_bits)
{
    return index_bits >= 1 && index_bits <= 31;
}

/**
 * Phase 0: compact the conditional branches of @p records into the
 * scratch SoA arrays (address, pre-branch history, outcome) with a
 * branchless cursor, advancing the history register exactly as the
 * block kernel would (conditionals shift in their outcome,
 * unconditionals shift in taken). Returns the number of
 * conditionals; the post-block history lands in @p history_out.
 */
namespace detail
{

/**
 * Stage one record into the SoA arrays. The taken/conditional pair
 * is fetched as one 16-bit word (memcpy keeps it strict-aliasing
 * clean and compiles to a single load) instead of two byte loads.
 * Unconditionally staging and advancing the cursor by the
 * conditional bit keeps the loop free of data-dependent branches:
 * an unconditional's slot is simply overwritten by the next
 * conditional.
 */
inline void
stageRecord(const BranchRecord &record, u64 *pc, u64 *history,
            u8 *taken, std::size_t &cursor, u64 &h)
{
    static_assert(sizeof(BranchRecord) >=
                  offsetof(BranchRecord, taken) + 2);
    u16 flags;
    std::memcpy(&flags, &record.taken, sizeof(flags));
    const u64 taken_bit = flags & 1;
    const u64 conditional_bit = (flags >> 8) & 1;
    pc[cursor] = record.pc;
    history[cursor] = h;
    taken[cursor] = u8(taken_bit);
    cursor += std::size_t(conditional_bit);
    h = (h << 1) | (taken_bit | (conditional_bit ^ 1));
}

} // namespace detail

inline std::size_t
compactConditionals(const BranchRecord *records, std::size_t count,
                    u64 history_in, ReplayScratch &scratch,
                    u64 *history_out)
{
    u64 *pc = scratch.pc.data();
    u64 *history = scratch.history.data();
    u8 *taken = scratch.taken.data();
    u64 h = history_in;
    std::size_t cursor = 0;
    std::size_t i = 0;
    // Unrolled by 4 (the compiler does not unroll at -O2, and the
    // loop-carried work per record is tiny), with the record stream
    // prefetched half a kilobyte ahead: replay streams the trace
    // from L3/memory exactly once, and this pass is where that cost
    // lands.
    for (; i + 4 <= count; i += 4) {
        __builtin_prefetch(records + i + 32, 0);
        detail::stageRecord(records[i], pc, history, taken, cursor, h);
        detail::stageRecord(records[i + 1], pc, history, taken,
                            cursor, h);
        detail::stageRecord(records[i + 2], pc, history, taken,
                            cursor, h);
        detail::stageRecord(records[i + 3], pc, history, taken,
                            cursor, h);
    }
    for (; i < count; ++i) {
        detail::stageRecord(records[i], pc, history, taken, cursor, h);
    }
    *history_out = h;
    return cursor;
}

/**
 * Drive the phase-split passes tile-by-tile over one replay block:
 * compact a tile of records into @p scratch, then hand the tile's
 * conditional count to @p fill_and_resolve (which runs the index
 * fill and resolve phases out of the same scratch), together with
 * the tile's slice of the mispredict mask — null unless the session
 * requested one (see ReplayScratch::recordMispredicts). History
 * threads through the tiles; the post-block value is returned.
 * @p index_sets is the number of per-bank index arrays ensure()d
 * per tile.
 */
template <typename FillAndResolve>
inline u64
replayTiled(const BranchRecord *records, std::size_t count,
            u64 history_in, ReplayScratch &scratch,
            unsigned index_sets, FillAndResolve &&fill_and_resolve)
{
    u64 h = history_in;
    u8 *mask = mispredictMask(&scratch);
    for (std::size_t at = 0; at < count; at += simdTileRecords) {
        const std::size_t n =
            std::min(simdTileRecords, count - at);
        scratch.ensure(n, index_sets);
        const std::size_t conditionals =
            compactConditionals(records + at, n, h, scratch, &h);
        fill_and_resolve(conditionals, mask);
        if (mask) {
            mask += conditionals;
        }
    }
    return h;
}

#if BPRED_HAVE_AVX2

/**
 * Store four sub-2^31 u64 lanes of @p lanes as four consecutive
 * u32s at @p out.
 */
[[gnu::target("avx2")]] inline void
simdStoreIndices(u32 *out, __m256i lanes)
{
    const __m256i packed = _mm256_permutevar8x32_epi32(
        lanes, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out),
                     _mm256_castsi256_si128(packed));
}

/** addressIndex() over four lanes at a time. */
[[gnu::target("avx2")]] inline void
fillAddressIndicesAvx2(const u64 *pc, std::size_t n,
                       unsigned index_bits, u32 *out)
{
    const __m256i index_mask =
        _mm256_set1_epi64x(i64(mask(index_bits)));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i address = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(pc + i));
        simdStoreIndices(
            out + i,
            _mm256_and_si256(_mm256_srli_epi64(address, 2),
                             index_mask));
    }
    for (; i < n; ++i) {
        out[i] = static_cast<u32>(
            u64(addressIndex(pc[i], index_bits)));
    }
}

/**
 * gshareIndex() over four lanes at a time. The short-history
 * alignment shift and the xorFold of a long history are both uniform
 * across the block (the widths are configuration), so each variant
 * is a branch-free lane loop; the fold runs the fixed
 * ceil(history_bits / index_bits) iterations xorFold() would at
 * most (extra iterations fold in zero).
 */
[[gnu::target("avx2")]] inline void
fillGshareIndicesAvx2(const u64 *pc, const u64 *history,
                      std::size_t n, unsigned history_bits,
                      unsigned index_bits, u32 *out)
{
    const __m256i index_mask =
        _mm256_set1_epi64x(i64(mask(index_bits)));
    const __m256i history_mask =
        _mm256_set1_epi64x(i64(mask(history_bits)));
    std::size_t i = 0;
    if (history_bits <= index_bits) {
        const __m128i align_shift =
            _mm_cvtsi32_si128(int(index_bits - history_bits));
        for (; i + 4 <= n; i += 4) {
            const __m256i address = _mm256_and_si256(
                _mm256_srli_epi64(
                    _mm256_load_si256(
                        reinterpret_cast<const __m256i *>(pc + i)),
                    2),
                index_mask);
            __m256i hist = _mm256_and_si256(
                _mm256_load_si256(
                    reinterpret_cast<const __m256i *>(history + i)),
                history_mask);
            hist = _mm256_sll_epi64(hist, align_shift);
            simdStoreIndices(out + i,
                             _mm256_xor_si256(address, hist));
        }
    } else {
        const unsigned folds =
            (history_bits + index_bits - 1) / index_bits;
        const __m128i fold_shift = _mm_cvtsi32_si128(int(index_bits));
        for (; i + 4 <= n; i += 4) {
            const __m256i address = _mm256_and_si256(
                _mm256_srli_epi64(
                    _mm256_load_si256(
                        reinterpret_cast<const __m256i *>(pc + i)),
                    2),
                index_mask);
            __m256i value = _mm256_and_si256(
                _mm256_load_si256(
                    reinterpret_cast<const __m256i *>(history + i)),
                history_mask);
            __m256i folded = _mm256_setzero_si256();
            for (unsigned fold = 0; fold < folds; ++fold) {
                folded = _mm256_xor_si256(
                    folded, _mm256_and_si256(value, index_mask));
                value = _mm256_srl_epi64(value, fold_shift);
            }
            simdStoreIndices(out + i,
                             _mm256_xor_si256(address, folded));
        }
    }
    for (; i < n; ++i) {
        out[i] = static_cast<u32>(u64(gshareIndex(
            pc[i], history[i], history_bits, index_bits)));
    }
}

/** gselectIndex() over four lanes at a time (both concat shapes). */
[[gnu::target("avx2")]] inline void
fillGselectIndicesAvx2(const u64 *pc, const u64 *history,
                       std::size_t n, unsigned history_bits,
                       unsigned index_bits, u32 *out)
{
    std::size_t i = 0;
    if (history_bits >= index_bits) {
        const __m256i index_mask =
            _mm256_set1_epi64x(i64(mask(index_bits)));
        for (; i + 4 <= n; i += 4) {
            const __m256i hist = _mm256_load_si256(
                reinterpret_cast<const __m256i *>(history + i));
            simdStoreIndices(out + i,
                             _mm256_and_si256(hist, index_mask));
        }
    } else {
        const unsigned addr_bits = index_bits - history_bits;
        const __m256i addr_mask =
            _mm256_set1_epi64x(i64(mask(addr_bits)));
        const __m256i history_mask =
            _mm256_set1_epi64x(i64(mask(history_bits)));
        const __m128i concat_shift = _mm_cvtsi32_si128(int(addr_bits));
        for (; i + 4 <= n; i += 4) {
            const __m256i address = _mm256_and_si256(
                _mm256_srli_epi64(
                    _mm256_load_si256(
                        reinterpret_cast<const __m256i *>(pc + i)),
                    2),
                addr_mask);
            __m256i hist = _mm256_and_si256(
                _mm256_load_si256(
                    reinterpret_cast<const __m256i *>(history + i)),
                history_mask);
            hist = _mm256_sll_epi64(hist, concat_shift);
            simdStoreIndices(out + i,
                             _mm256_or_si256(hist, address));
        }
    }
    for (; i < n; ++i) {
        out[i] = static_cast<u32>(u64(gselectIndex(
            pc[i], history[i], history_bits, index_bits)));
    }
}

#endif // BPRED_HAVE_AVX2

/**
 * Phase 1 for the address-truncation index (bimodal, the hybrid's
 * chooser, e-gskew bank 0): @p mode selects the AVX2 kernel or the
 * bit-identical scalar fallback.
 */
inline void
fillAddressIndices(SimdMode mode, const u64 *pc, std::size_t n,
                   unsigned index_bits, u32 *out)
{
#if BPRED_HAVE_AVX2
    if (mode == SimdMode::Avx2) {
        fillAddressIndicesAvx2(pc, n, index_bits, out);
        return;
    }
#endif
    static_cast<void>(mode);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<u32>(
            u64(addressIndex(pc[i], index_bits)));
    }
}

/** Phase 1 for the gshare XOR index (see fillAddressIndices). */
inline void
fillGshareIndices(SimdMode mode, const u64 *pc, const u64 *history,
                  std::size_t n, unsigned history_bits,
                  unsigned index_bits, u32 *out)
{
#if BPRED_HAVE_AVX2
    if (mode == SimdMode::Avx2) {
        fillGshareIndicesAvx2(pc, history, n, history_bits,
                              index_bits, out);
        return;
    }
#endif
    static_cast<void>(mode);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<u32>(u64(gshareIndex(
            pc[i], history[i], history_bits, index_bits)));
    }
}

/** Phase 1 for the gselect concat index (see fillAddressIndices). */
inline void
fillGselectIndices(SimdMode mode, const u64 *pc, const u64 *history,
                   std::size_t n, unsigned history_bits,
                   unsigned index_bits, u32 *out)
{
#if BPRED_HAVE_AVX2
    if (mode == SimdMode::Avx2) {
        fillGselectIndicesAvx2(pc, history, n, history_bits,
                               index_bits, out);
        return;
    }
#endif
    static_cast<void>(mode);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<u32>(u64(gselectIndex(
            pc[i], history[i], history_bits, index_bits)));
    }
}

/**
 * Fail on a phase-3 index mismatch: the precomputed index diverged
 * from the one recomputed out of the resolved history. Phase 0's
 * speculation is exact, so a mismatch means a fill kernel and its
 * scalar reference disagree — an internal bug. Only checked builds
 * verify indices, and they abort here rather than repair, so the
 * checked CI leg fails on the bug instead of passing with patched
 * output.
 */
[[noreturn]] inline void
noteIndexRepair()
{
    panic("phase-split replay: precomputed index diverged from the "
          "scalar index function over the resolved history "
          "(fill-kernel bug)");
}

namespace detail
{

/**
 * The release resolve span for narrow counters (max <= 7): one
 * counterTransitionLut() shift per record, unrolled by 4 with split
 * misprediction accumulators. With @p WriteMask, record j's outcome
 * also lands in @p mask[j].
 */
template <bool WriteMask>
inline void
resolveLutSpan(u8 *values, const u32 *idx, const u8 *taken,
               std::size_t begin, std::size_t end, u64 lut,
               u8 threshold, u64 &m0, u64 &m1, u8 *mask)
{
    const auto one = [&](std::size_t j, u64 &m) {
        u8 &value = values[idx[j]];
        const u8 outcome = taken[j];
        const u8 wrong = u8(u8(value >= threshold) != outcome);
        if constexpr (WriteMask) {
            mask[j] = wrong;
        }
        m += wrong;
        value = u8((lut >> ((value * 2 + outcome) * 4)) & 15);
    };
    std::size_t j = begin;
    for (; j + 4 <= end; j += 4) {
        one(j, m0);
        one(j + 1, m1);
        one(j + 2, m0);
        one(j + 3, m1);
    }
    for (; j < end; ++j) {
        one(j, m0);
    }
}

/** The release resolve span for wide counters (max > 7). */
template <bool WriteMask>
inline void
resolveArithSpan(u8 *values, const u32 *idx, const u8 *taken,
                 std::size_t begin, std::size_t end, u8 max,
                 u8 threshold, u64 &m0, u8 *mask)
{
    for (std::size_t j = begin; j < end; ++j) {
        u8 &value = values[idx[j]];
        const u8 outcome = taken[j];
        const u8 wrong = u8(u8(value >= threshold) != outcome);
        if constexpr (WriteMask) {
            mask[j] = wrong;
        }
        m0 += wrong;
        const u8 up = u8(outcome & (value < max));
        const u8 down = u8((outcome ^ 1) & (value > 0));
        value = u8(value + up - down);
    }
}

} // namespace detail

/**
 * Phases 2+3 for single-table schemes (bimodal/gshare/gselect):
 * resolve @p n precomputed conditionals against @p table. When
 * @p prefetch_counters is set (tables too big to sit in L1 —
 * simdWantsCounterPrefetch), the pass runs in sub-batches,
 * prefetching the next sub-batch's counter lines before resolving
 * the current one; L1-resident tables run one flat loop instead,
 * since the prefetch instruction itself would be the overhead.
 * @p recompute(j) must return the scalar index function's value for
 * conditional @p j from the stored pre-branch history; checked
 * builds verify every index against it and abort on divergence.
 * A non-null @p mask receives conditional j's mispredict flag in
 * mask[j] (replayTiled() hands each tile its slice).
 *
 * The table must be a flat stride-1 view (every single-table caller
 * is); the loops index raw bytes so no per-access stride multiply
 * lands in the address chain.
 */
template <typename RecomputeIndex>
inline void
resolveSingleTable(SatCounterArray::View table, const u32 *idx,
                   const u8 *taken, std::size_t n,
                   [[maybe_unused]] bool prefetch_counters,
                   ReplayCounters &counters, u8 *mask,
                   [[maybe_unused]] RecomputeIndex &&recompute)
{
    BP_DCHECK(table.stride == 1,
              "resolveSingleTable: strided view (use the bank "
              "resolver)");

#ifdef BPRED_CHECKED
    // Checked builds keep the straight-line loop: per-record index
    // verification dominates anyway.
    u64 mispredicts = 0;
    for (std::size_t j = 0; j < n; ++j) {
        const u64 index = idx[j];
        if (index != recompute(j)) [[unlikely]] {
            noteIndexRepair();
        }
        const bool outcome = taken[j] != 0;
        const bool prediction = table.predictTaken(index);
        table.update(index, outcome);
        mispredicts += u64(prediction != outcome);
        if (mask) {
            mask[j] = u8(prediction != outcome);
        }
    }
    counters.conditionals += n;
    counters.mispredicts += mispredicts;
    return;
#else
    // Release resolve: the counter transition is one LUT shift for
    // the common narrow widths, and the loop is unrolled by 4 with
    // split misprediction accumulators — the compiler does neither
    // at -O2, and this serial pass is the longest phase. The spans
    // are free functions (detail::resolveLutSpan /
    // resolveArithSpan), not capturing lambdas: measured ~10%
    // faster, the compiler keeps every hot value in registers. The
    // counter width and the mask request pick one instantiation per
    // call, so a mask-free replay runs the same loop as ever.
    u8 *values = table.values;
    const u8 max = table.max;
    const u8 threshold = table.threshold;
    u64 m0 = 0;
    u64 m1 = 0;
    const u64 lut = max <= 7 ? counterTransitionLut(max) : 0;
    const auto run = [&]<bool Narrow, bool WriteMask>() {
        const auto span = [&](std::size_t begin, std::size_t end) {
            if constexpr (Narrow) {
                detail::resolveLutSpan<WriteMask>(values, idx, taken,
                                                  begin, end, lut,
                                                  threshold, m0, m1,
                                                  mask);
            } else {
                detail::resolveArithSpan<WriteMask>(values, idx, taken,
                                                    begin, end, max,
                                                    threshold, m0,
                                                    mask);
            }
        };
        if (!prefetch_counters) {
            span(0, n);
            return;
        }
        for (std::size_t base = 0; base < n; base += simdSubBatch) {
            const std::size_t end = std::min(n, base + simdSubBatch);
            const std::size_t prefetch_end =
                std::min(n, end + simdSubBatch);
            for (std::size_t j = end; j < prefetch_end; ++j) {
                __builtin_prefetch(values + idx[j], 1);
            }
            span(base, end);
        }
    };
    if (max <= 7) {
        if (mask) {
            run.template operator()<true, true>();
        } else {
            run.template operator()<true, false>();
        }
    } else if (mask) {
        run.template operator()<false, true>();
    } else {
        run.template operator()<false, false>();
    }
    counters.conditionals += n;
    counters.mispredicts += m0 + m1;
#endif
}

} // namespace bpred
