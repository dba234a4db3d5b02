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
 * block-granular ensure() guarantees those loads never split a line.
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

#include "support/aligned.hh"
#include "support/check.hh"
#include "support/simd.hh"
#include "support/types.hh"

namespace bpred
{

/**
 * Largest number of per-record index arrays any scheme needs: one
 * per bank of the widest skewed configuration (== maxSkewBanks;
 * restated here so predictors/ does not depend on core/).
 */
constexpr unsigned maxReplayIndexSets = 5;

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

    /** Conditional branch addresses, compacted in trace order. */
    AlignedVector<u64> pc;

    /** Pre-branch global history for each conditional. */
    AlignedVector<u64> history;

    /** Outcome (1 = taken) for each conditional. */
    AlignedVector<u8> taken;

    /** Per-table precomputed counter indices (one set per bank). */
    std::array<AlignedVector<u32>, maxReplayIndexSets> indices;

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
     * Grow the staging arrays (never shrinking) to hold a block of
     * @p count records using @p index_sets index arrays.
     */
    void
    ensure(std::size_t count, unsigned index_sets)
    {
        if (pc.size() < count) {
            pc.resize(count);
            history.resize(count);
            taken.resize(count);
        }
        for (unsigned set = 0; set < index_sets; ++set) {
            if (indices[set].size() < count) {
                indices[set].resize(count);
            }
        }
        BP_DCHECK(count == 0 ||
                      (isCacheAligned(pc.data()) &&
                       isCacheAligned(history.data()) &&
                       isCacheAligned(taken.data())),
                  "replay scratch: staging arrays not cache aligned");
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
