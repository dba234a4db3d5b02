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
 *     speculation is exact, not a guess. It is also the same for
 *     every predictor entering the block with the same history, so
 *     a gang compacts each block once and its members share the
 *     staged tiles (ReplayScratch::openBlock()).
 *  1. Index fill — the per-record table indices for the whole block
 *     are materialized with AVX2 kernels (four 64-bit lanes per
 *     step), each finishing the non-multiple-of-4 tail with the
 *     scalar index function.
 *  2. Prefetch — before each ~64-record sub-batch resolves, the
 *     next sub-batch's counter lines are requested with
 *     __builtin_prefetch, hiding table-lookup latency behind the
 *     current sub-batch's ALU work.
 *  3. Resolve — the serial pass consuming precomputed indices. One
 *     function, resolveBankGroup(), serves every phase-split scheme:
 *     a single table is the 1-bank group under UpdatePolicy::Total,
 *     the skewed family its 3- and 5-bank groups. Per record, one
 *     transition-table lookup (bank_vote.hh) keyed by the counters
 *     read and the outcome yields every bank's next counter, the
 *     mispredict flag and the write count, which feed the tallies and
 *     (when the session asked) the per-conditional mispredict mask.
 *     Checked builds recompute each index from the stored history
 *     through the scalar index function and abort on divergence
 *     (noteIndexRepair) — phase 0's speculation is exact by
 *     construction, so a mismatch is a fill-kernel bug — and verify
 *     every lookup against skewedVote().
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
#include <bit>
#include <cstddef>
#include <cstring>

#include "predictors/bank_vote.hh"
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
 * SoA arrays @p pc, @p history and @p taken (address, pre-branch
 * history, outcome) with a branchless cursor, advancing the history
 * register exactly as the block kernel would (conditionals shift in
 * their outcome, unconditionals shift in taken). Returns the number
 * of conditionals; the post-block history lands in @p history_out.
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
                    u64 history_in, u64 *pc, u64 *history, u8 *taken,
                    u64 *history_out)
{
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

/** compactConditionals() into staging slot @p slot of @p scratch. */
inline std::size_t
compactIntoSlot(const BranchRecord *records, std::size_t count,
                u64 history_in, ReplayScratch &scratch,
                std::size_t slot, u64 *history_out)
{
    const std::size_t at = slot * simdTileRecords;
    return compactConditionals(records, count, history_in,
                               scratch.pc.data() + at,
                               scratch.history.data() + at,
                               scratch.taken.data() + at, history_out);
}

/**
 * Checked builds: fail on a compaction-memo hit that differs from
 * compacting the tile afresh. Tile @p tile of the open block was
 * reused for the @p count records at @p records entered with
 * history @p history_in; they are compacted again into @p free_slot
 * and every staged array, the conditional count and the exit
 * history must match. A mismatch means the memo's key admitted a
 * walk it should not have — abort, never repair.
 */
inline void
verifyMemoHit([[maybe_unused]] const BranchRecord *records,
              [[maybe_unused]] std::size_t count,
              [[maybe_unused]] u64 history_in,
              [[maybe_unused]] ReplayScratch &scratch,
              [[maybe_unused]] std::size_t tile,
              [[maybe_unused]] std::size_t free_slot)
{
#if BPRED_CHECKED
    u64 exit_history = 0;
    const std::size_t conditionals = compactIntoSlot(
        records, count, history_in, scratch, free_slot, &exit_history);
    const ReplayTile fresh = scratch.tile(free_slot, conditionals);
    const ReplayScratch::StagedTile &staged = scratch.stagedTiles[tile];
    const ReplayTile reused = scratch.tile(tile, staged.conditionals);
    if (conditionals != reused.conditionals ||
        exit_history != staged.historyOut ||
        !std::equal(fresh.pc, fresh.pc + conditionals, reused.pc) ||
        !std::equal(fresh.history, fresh.history + conditionals,
                    reused.history) ||
        !std::equal(fresh.taken, fresh.taken + conditionals,
                    reused.taken)) {
        panic("phase-split replay: a reused compaction tile differs "
              "from compacting its records afresh (compaction memo "
              "key admitted a foreign walk)");
    }
#endif
}

/**
 * Drive the phase-split passes tile-by-tile over one replay block:
 * stage each tile of records (phase 0), then hand the staged tile
 * to @p fill_and_resolve (which runs the index fill and resolve
 * phases, writing indices to the scratch's index arrays), together
 * with the tile's slice of the mispredict mask — null unless the
 * session requested one (see ReplayScratch::recordMispredicts).
 * History threads through the tiles; the post-block value is
 * returned. @p index_sets is the number of per-bank index arrays
 * ensured per tile.
 *
 * A walk over a whole block a gang has open on @p scratch, entered
 * with the memo's history, reuses each tile already staged there
 * and stages the rest in their own slots for the members after it;
 * every other walk stages each tile afresh in the private slot past
 * the open block's.
 */
template <typename FillAndResolve>
inline u64
replayTiled(const BranchRecord *records, std::size_t count,
            u64 history_in, ReplayScratch &scratch,
            unsigned index_sets, FillAndResolve &&fill_and_resolve)
{
    ReplayScratch::CompactionMemo &memo = scratch.memo;
    const bool shared =
        scratch.sharesOpenBlock(records, count, history_in);
    const std::size_t private_slot = memo.slots;
    const std::size_t tile_records = std::min(count, simdTileRecords);
    scratch.ensureStaging(private_slot * simdTileRecords + tile_records);
    scratch.ensureIndices(tile_records, index_sets);
    u64 h = history_in;
    u8 *mask = mispredictMask(&scratch);
    for (std::size_t tile = 0, at = 0; at < count;
         ++tile, at += simdTileRecords) {
        const std::size_t n = std::min(simdTileRecords, count - at);
        const std::size_t slot = shared ? tile : private_slot;
        std::size_t conditionals = 0;
        if (shared && tile < memo.staged) {
            verifyMemoHit(records + at, n, h, scratch, tile,
                          private_slot);
            conditionals = scratch.stagedTiles[tile].conditionals;
            h = scratch.stagedTiles[tile].historyOut;
        } else {
            conditionals = compactIntoSlot(records + at, n, h, scratch,
                                           slot, &h);
            if (shared) {
                scratch.stagedTiles[tile] = {conditionals, h};
                memo.staged = tile + 1;
            }
        }
        fill_and_resolve(scratch.tile(slot, conditionals), mask);
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
 * Phase 1 for one table-index function (a single table, or the
 * gskewed `identical` ablation's shared gshare index): @p index's
 * AVX2 kernel. Callers reach it only after resolveSimdMode()
 * returned SimdMode::Avx2, which a build without AVX2 never does.
 */
inline void
fillTableIndices([[maybe_unused]] TableIndex index,
                 [[maybe_unused]] const u64 *pc,
                 [[maybe_unused]] const u64 *history,
                 [[maybe_unused]] std::size_t n,
                 [[maybe_unused]] unsigned history_bits,
                 [[maybe_unused]] unsigned index_bits,
                 [[maybe_unused]] u32 *out)
{
#if BPRED_HAVE_AVX2
    switch (index) {
      case TableIndex::Address:
        fillAddressIndicesAvx2(pc, n, index_bits, out);
        return;
      case TableIndex::Xor:
        fillGshareIndicesAvx2(pc, history, n, history_bits, index_bits,
                              out);
        return;
      case TableIndex::Concat:
        fillGselectIndicesAvx2(pc, history, n, history_bits,
                               index_bits, out);
        return;
    }
#else
    panic("fillTableIndices: built without AVX2");
#endif
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
 * The resolve span: per record, pack the outcome and every bank's
 * counter into a key, look up one transition-table entry
 * (bank_vote.hh), store each bank's next value from it and tally its
 * mispredict bit and write count. @p group is an interleaved group's
 * storage — bank b's counter i at group[i * NumBanks + b] — so the
 * address math is a lea. Unrolled x2 with split accumulators: GCC
 * does not unroll at -O2, and pairing records overlaps their counter
 * accesses. The index pointers and accumulators are locals (the
 * accumulators are added to @p mispredicts and @p writes once at the
 * end): a counter store is a u8 store, which may alias any object
 * whose address escaped, so reading through the references would
 * reload them per record. Flattened, like the block kernel loop:
 * with one instantiation per bank count, counter width and mask
 * request, GCC's inliner would otherwise leave the per-record body
 * out of line. @p verify sees every lookup before its stores (a
 * no-op outside checked builds). With @p WriteMask, record j's
 * mispredict flag lands in @p mask[j].
 */
template <unsigned NumBanks, unsigned CounterBits, bool WriteMask,
          typename Verify>
[[gnu::flatten]] inline void
resolveBankGroupSpan(u8 *group, const u32 *const (&idx)[NumBanks],
                     const u8 *taken, std::size_t begin,
                     std::size_t end, const u16 *table,
                     u64 &mispredicts, u64 &writes, u8 *mask,
                     Verify &verify)
{
    constexpr unsigned counter_max = (1u << CounterBits) - 1;
    const u32 *bank_idx[NumBanks];
    std::copy(idx, idx + NumBanks, bank_idx);
    u64 mis0 = 0;
    u64 mis1 = 0;
    u64 writes0 = 0;
    u64 writes1 = 0;
    const auto one = [&](std::size_t j, u64 &mis, u64 &writes) {
        const u8 outcome = taken[j];
        u8 *ptr[NumBanks] = {};
        u8 values[NumBanks] = {};
        unsigned key = outcome;
#pragma GCC unroll 8
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            ptr[bank] =
                group + std::size_t(bank_idx[bank][j]) * NumBanks + bank;
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
    mispredicts += mis0 + mis1;
    writes += writes0 + writes1;
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
        panic("bank-group resolve: no transition table for this "
              "counter width");
    }
}

} // namespace detail

/**
 * Phases 2+3, the one resolve: run @p n precomputed conditionals
 * through the bank group @p group views, under @p policy. @p group
 * is bank 0's view of an interleaved group of NumBanks banks (stride
 * NumBanks), so a flat single table (stride 1) is the 1-bank group;
 * the geometry must have a transition table (skewedTableFits; wider
 * groups take the block kernel). When @p prefetch_counters is set
 * (simdWantsCounterPrefetch over the group's footprint), the pass
 * runs in sub-batches, prefetching every bank's counter line for the
 * next sub-batch first; L1-resident groups run one flat loop, since
 * the prefetch instructions would be the overhead.
 * @p recompute(bank, j) is the scalar bank-index reference: checked
 * builds verify every precomputed index against it (noteIndexRepair)
 * and every table lookup against skewedVote(). The write count lands
 * in @p bank_write_count. A non-null @p mask receives conditional
 * j's overall mispredict flag in mask[j].
 */
template <unsigned NumBanks, typename RecomputeIndex>
inline void
resolveBankGroup(SatCounterArray::View group,
                 const u32 *const (&idx)[NumBanks], const u8 *taken,
                 std::size_t n, UpdatePolicy policy,
                 bool prefetch_counters, ReplayCounters &counters,
                 u64 &bank_write_count, u8 *mask,
                 [[maybe_unused]] RecomputeIndex &&recompute)
{
    const unsigned counter_bits = unsigned(std::bit_width(group.max));
    BP_CHECK(group.stride == NumBanks &&
                 skewedTableFits(NumBanks, counter_bits),
             "resolveBankGroup: not an interleaved group with a "
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
    u8 *const values = group.values;
    u64 mispredicts = 0;
    // One instantiation per counter width and mask request (tested
    // once per call); the update policy is only which table is read.
    const auto run = [&]<unsigned CounterBits, bool WriteMask>() {
        const u16 *table =
            skewedTransitionTable<NumBanks, CounterBits>(policy);
#ifdef BPRED_CHECKED
        const auto verify = [policy](const u8(&read)[NumBanks],
                                     u8 outcome, unsigned entry) {
            verifySkewedEntry<NumBanks, CounterBits>(
                read, outcome != 0, entry, policy);
        };
#else
        const auto verify = [](const u8(&)[NumBanks], u8, unsigned) {};
#endif
        const auto span = [&](std::size_t begin, std::size_t end) {
            detail::resolveBankGroupSpan<NumBanks, CounterBits,
                                         WriteMask>(
                values, idx, taken, begin, end, table, mispredicts,
                bank_write_count, mask, verify);
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
                        values + std::size_t(idx[bank][j]) * NumBanks +
                            bank,
                        1);
                }
            }
            span(at, end);
        }
    };
    detail::withTableCounterBits<NumBanks>(
        counter_bits, [&]<unsigned CounterBits>() {
            if (mask) {
                run.template operator()<CounterBits, true>();
            } else {
                run.template operator()<CounterBits, false>();
            }
        });
    counters.conditionals += n;
    counters.mispredicts += mispredicts;
}

} // namespace bpred
