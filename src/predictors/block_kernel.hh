/**
 * @file
 * The shared per-block replay kernel behind every
 * Predictor::replayBlock() override.
 *
 * Each concrete predictor defines a private BlockState: its hot
 * state (history register, raw counter pointers, config fields)
 * lifted into plain locals whose addresses never escape. The kernel
 * template instantiates once per state type and inlines its step,
 * so the inner loop runs with zero virtual calls — the block's
 * single replayBlock() dispatch is the only one — AND the compiler
 * can keep the lifted state in registers across the whole block:
 * counter stores are char-typed and would otherwise force every
 * member field to be re-loaded from memory after each branch.
 *
 * A BlockState provides:
 *   bool step(Addr pc, bool taken)  — predict and train in one
 *                                     pass, returning the
 *                                     pre-update prediction;
 *   void unconditional(Addr pc)     — the notifyUnconditional
 *                                     equivalent;
 *   void commit()                   — write mutated state back to
 *                                     the predictor.
 * step()/unconditional() must mirror split predict()/update()
 * exactly: that pair is each scheme's one reference definition, and
 * the base Predictor::replayBlock() runs this kernel over it.
 * test_predictor_contract pins every block replay to the split loop
 * for every registered scheme.
 *
 * Overrides must run their own state only on the no-probe path (a
 * probed predictor delegates to the base Predictor::replayBlock() so
 * event streams come from update()), and must pass their
 * ReplayScratch through — to the kernel and to the delegated default
 * alike — so a requested mispredict mask is filled on every path.
 */

#pragma once

#include <cstddef>

#include "predictors/predictor.hh"
#include "predictors/replay_scratch.hh"

namespace bpred
{

namespace detail
{

/**
 * The kernel loop. @p state arrives by value so its fields stay
 * promotable to registers (see the file comment). Flattened: with
 * two instantiations calling step(), GCC's inliner would otherwise
 * leave large steps (the skewed family's bank hashes) out of line.
 */
template <bool WriteMask, typename BlockState>
[[gnu::flatten]] inline void
replayBlockLoop(BlockState state, const BranchRecord *records,
                std::size_t count, ReplayCounters &counters,
                [[maybe_unused]] u8 *mask)
{
    u64 conditionals = 0;
    u64 mispredicts = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const BranchRecord &record = records[i];
        if (!record.conditional) {
            state.unconditional(record.pc);
            continue;
        }
        const bool prediction = state.step(record.pc, record.taken);
        // Arithmetic, not a branch: whether a prediction was right
        // is data, and maximally unpredictable data for exactly the
        // records that make a predictor study interesting.
        const u8 wrong = u8(prediction != record.taken);
        if constexpr (WriteMask) {
            mask[conditionals] = wrong;
        }
        ++conditionals;
        mispredicts += wrong;
    }
    state.commit();
    counters.conditionals += conditionals;
    counters.mispredicts += mispredicts;
}

/**
 * The mask-writing instantiation, kept out of line so the mask-free
 * loop inlines into each replayBlock() exactly as it would alone.
 */
template <typename BlockState>
[[gnu::noinline]] void
replayBlockMasked(BlockState state, const BranchRecord *records,
                  std::size_t count, ReplayCounters &counters,
                  u8 *mask)
{
    replayBlockLoop<true>(state, records, count, counters, mask);
}

} // namespace detail

/**
 * Replay @p count records through @p state (a predictor's
 * BlockState, constructed fresh for this block), committing the
 * state back and adding the block's tallies to @p counters. When
 * @p scratch requests the mispredict mask (replay_scratch.hh), the
 * k-th conditional's outcome lands in its k-th byte; the request is
 * tested once per block.
 */
template <typename BlockState>
void
replayBlockWithState(BlockState state, const BranchRecord *records,
                     std::size_t count, ReplayCounters &counters,
                     ReplayScratch *scratch = nullptr)
{
    if (u8 *const mask = mispredictMask(scratch)) {
        detail::replayBlockMasked(state, records, count, counters,
                                  mask);
        return;
    }
    detail::replayBlockLoop<false>(state, records, count, counters,
                                   nullptr);
}

} // namespace bpred
