/**
 * @file
 * Reusable per-session scratch for the phase-split replay kernels.
 *
 * The phase-split path (predictors/block_kernel_simd.hh) materializes
 * a block's conditional branches into structure-of-arrays form —
 * addresses, pre-branch histories, outcomes, then per-table indices —
 * before any counter is touched. Those arrays live here, owned by the
 * simulation session and threaded through Predictor::replayBlock(),
 * so a gang of predictors replaying the same trace reuses one
 * allocation instead of growing one per scheme per block.
 *
 * Every array is cache-line aligned (support/aligned.hh): the index
 * pass reads them with 256-bit loads, and a 64-byte base plus the
 * tile-slot layout below guarantee those loads never split a line.
 *
 * Phase 0 stages a block tile by tile, each tile in a slot of
 * simdTileRecords entries. A GangSession opens its current block on
 * the shared scratch (openBlock()) before the members replay it: the
 * first member walking the whole block stages tile t in slot t and
 * notes it in the compaction memo, and every later member entering
 * the block with the same history reuses the staged tiles instead
 * of compacting the block again. Walks that do not share the memo
 * stage each tile in the one slot past the open block's — slot 0
 * when no block is open, as for a lone session or a serving worker.
 *
 * The scratch also carries the optional per-conditional mispredict
 * mask: when the session sets recordMispredicts, every replayBlock()
 * implementation writes one byte per conditional record of the call
 * (1 = mispredicted), in trace order, into `mispredicted` — which is
 * how top-site attribution and per-site tallies run on the block
 * kernels. Kernels test the request once per block, so callers that
 * never ask (sweeps, serving) keep mask-free inner loops.
 */

#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "support/aligned.hh"
#include "support/check.hh"
#include "support/simd.hh"
#include "support/types.hh"
#include "trace/branch_record.hh"

namespace bpred
{

/**
 * Largest number of per-record index arrays any scheme needs: one
 * per bank of the widest skewed configuration (== maxSkewBanks;
 * restated here so predictors/ does not depend on core/).
 */
constexpr unsigned maxReplayIndexSets = 5;

/**
 * Records per phase tile: the phases run tile-by-tile inside each
 * replay block so the staging arrays a tile touches (~21 KiB at
 * 1024 records) stay L1-resident between the compact, fill and
 * resolve passes instead of making L2 round trips per phase.
 * History threads through tile boundaries, so tiling is invisible
 * to results. Also the size of one staging slot.
 */
constexpr std::size_t simdTileRecords = 1024;

/**
 * Largest block openBlock() shares: its staged tiles take ~17 bytes
 * per record (~1.1 MiB here). Larger blocks, which only an explicit
 * block size asks for, are compacted per member.
 */
constexpr std::size_t maxSharedBlockRecords = 64 * simdTileRecords;

/** One staged tile: phase 0's output, the index fill's input. */
struct ReplayTile
{
    /** Conditional branch addresses, in trace order. */
    const u64 *pc;

    /** Pre-branch global history for each conditional. */
    const u64 *history;

    /** Outcome (1 = taken) for each conditional. */
    const u8 *taken;

    /** Conditionals in the tile. */
    std::size_t conditionals;
};

/**
 * The SoA staging buffers for one block replay, plus the dispatch
 * mode the owning session resolved. Predictors receiving a scratch
 * run the phase-split kernels when resolveSimdMode(mode) selects a
 * vector implementation, and fall back to the block kernel
 * otherwise — so a null scratch (the default) or SimdMode::Scalar
 * both mean "the scalar block kernel".
 */
struct ReplayScratch
{
    /** Requested dispatch mode; kernels resolve Auto per block. */
    SimdMode mode = SimdMode::Auto;

    /** Conditional branch addresses, compacted in trace order,
     * one simdTileRecords slot per staged tile. */
    AlignedVector<u64> pc;

    /** Pre-branch global history for each conditional (as pc). */
    AlignedVector<u64> history;

    /** Outcome (1 = taken) for each conditional (as pc). */
    AlignedVector<u8> taken;

    /** Per-table precomputed counter indices (one set per bank). */
    std::array<AlignedVector<u32>, maxReplayIndexSets> indices;

    /**
     * Per-address history schemes (pskew): each conditional's
     * pre-branch local history for the tile being resolved, written
     * by the predictor's own pass so the staged tiles stay shared.
     */
    AlignedVector<u64> localHistories;

    /**
     * When set, replayBlock() fills `mispredicted` for the call.
     * Re-stamped by the owning session on every feed, like mode, so
     * gang members sharing one scratch can differ.
     */
    bool recordMispredicts = false;

    /**
     * One byte per conditional record of the latest replayBlock()
     * call, in trace order: 1 when it was mispredicted. Written
     * only while recordMispredicts is set; sized by the caller via
     * ensureMispredicts() before the call.
     */
    AlignedVector<u8> mispredicted;

    /**
     * Grow the mask (never shrinking) to cover a replayBlock() call
     * over @p count records.
     */
    void
    ensureMispredicts(std::size_t count)
    {
        if (mispredicted.size() < count) {
            mispredicted.resize(count);
        }
    }

    /**
     * Phase 0's memo over the open gang block: what the tiles staged
     * in slots 0..staged-1 were compacted from. A walk may reuse a
     * staged tile only while the block is open and its records,
     * count and entry history all match — a reused feed buffer
     * repeats the first two, and often the history, across blocks.
     */
    struct CompactionMemo
    {
        /** The open block's records; null while none is open. */
        const BranchRecord *records = nullptr;

        /** Records in the open block. */
        std::size_t count = 0;

        /** Slots the open block's tiles take (0 while closed). */
        std::size_t slots = 0;

        /** Set by the first walk over the whole open block. */
        bool keyed = false;

        /** That walk's entry history. */
        u64 historyIn = 0;

        /** Tiles staged so far, always a prefix from tile 0. */
        std::size_t staged = 0;
    };

    CompactionMemo memo;

    /** What phase 0 left for one staged tile of the open block. */
    struct StagedTile
    {
        std::size_t conditionals = 0;
        u64 historyOut = 0;
    };

    /** Per memo slot (the first memo.staged are valid). */
    std::vector<StagedTile> stagedTiles;

    /**
     * Open @p count records at @p records as the block whose tiles
     * walks over the whole block may share (a no-op past
     * maxSharedBlockRecords). The records must stay unchanged until
     * closeBlock().
     */
    void
    openBlock(const BranchRecord *records, std::size_t count)
    {
        closeBlock();
        if (count == 0 || count > maxSharedBlockRecords) {
            return;
        }
        memo.records = records;
        memo.count = count;
        memo.slots = (count + simdTileRecords - 1) / simdTileRecords;
        if (stagedTiles.size() < memo.slots) {
            stagedTiles.resize(memo.slots);
        }
        // The block's slots plus the private slot past them.
        ensureStaging((memo.slots + 1) * simdTileRecords);
    }

    /** Forget the open block: no staged tile is reused after this. */
    void
    closeBlock()
    {
        memo = CompactionMemo();
    }

    /**
     * True when a walk over @p count records at @p records entered
     * with @p history_in shares the open block's staged tiles. The
     * first walk over the whole open block keys the memo with its
     * entry history; later walks share only under the same one.
     */
    bool
    sharesOpenBlock(const BranchRecord *records, std::size_t count,
                    u64 history_in)
    {
        if (!memo.records || records != memo.records ||
            count != memo.count) {
            return false;
        }
        if (!memo.keyed) {
            memo.keyed = true;
            memo.historyIn = history_in;
        }
        return memo.historyIn == history_in;
    }

    /** The staged tile in @p slot, holding @p conditionals. */
    ReplayTile
    tile(std::size_t slot, std::size_t conditionals) const
    {
        const std::size_t at = slot * simdTileRecords;
        return {pc.data() + at, history.data() + at, taken.data() + at,
                conditionals};
    }

    /**
     * Grow the staging arrays (never shrinking) to hold @p count
     * entries: whole slots, so every slot base stays cache aligned.
     */
    void
    ensureStaging(std::size_t count)
    {
        if (pc.size() < count) {
            pc.resize(count);
            history.resize(count);
            taken.resize(count);
        }
        BP_DCHECK(count == 0 ||
                      (isCacheAligned(pc.data()) &&
                       isCacheAligned(history.data()) &&
                       isCacheAligned(taken.data())),
                  "replay scratch: staging arrays not cache aligned");
    }

    /** Grow localHistories (never shrinking) to @p count entries. */
    void
    ensureLocalHistories(std::size_t count)
    {
        if (localHistories.size() < count) {
            localHistories.resize(count);
        }
    }

    /**
     * Grow @p index_sets index arrays (never shrinking) to hold one
     * tile of @p count records.
     */
    void
    ensureIndices(std::size_t count, unsigned index_sets)
    {
        for (unsigned set = 0; set < index_sets; ++set) {
            if (indices[set].size() < count) {
                indices[set].resize(count);
            }
        }
    }
};

/**
 * Where a replayBlock() call writes the mispredict mask: null
 * without a scratch or without a request.
 */
inline u8 *
mispredictMask(ReplayScratch *scratch)
{
    return scratch && scratch->recordMispredicts
        ? scratch->mispredicted.data()
        : nullptr;
}

} // namespace bpred
