#include "predictors/gshare.hh"

#include "predictors/block_kernel.hh"
#include "predictors/block_kernel_simd.hh"
#include "predictors/info_vector.hh"
#include "predictors/replay_scratch.hh"
#include "support/probe.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

namespace
{

/**
 * gshare hot state lifted into locals (see block_kernel.hh): the
 * counter view, a by-value copy of the history register, and the
 * index geometry stay in registers across the block; commit()
 * publishes the advanced history back to the predictor.
 */
struct GShareBlockState
{
    SatCounterArray::View table;
    GlobalHistory history;
    unsigned historyBits;
    unsigned indexBits;
    GlobalHistory *historyOut;

    bool
    step(Addr pc, bool taken)
    {
        const u64 index =
            gshareIndex(pc, history.raw(), historyBits, indexBits);
        const bool prediction = table.predictTaken(index);
        table.update(index, taken);
        history.shiftIn(taken);
        return prediction;
    }

    void unconditional(Addr) { history.shiftIn(true); }
    void commit() { *historyOut = history; }
};

} // namespace

GSharePredictor::GSharePredictor(unsigned index_bits,
                                 unsigned history_bits,
                                 unsigned counter_bits)
    : table(u64(1) << checkedIndexBits("gshare", index_bits),
            counter_bits),
      indexBits(index_bits),
      historyBits_(checkedHistoryBits("gshare", history_bits))
{
}

u64
GSharePredictor::indexOf(Addr pc) const
{
    return gshareIndex(pc, history.raw(), historyBits_, indexBits);
}

bool
GSharePredictor::predict(Addr pc)
{
    return table.predictTaken(indexOf(pc));
}

void
GSharePredictor::update(Addr pc, bool taken)
{
    const u64 index = indexOf(pc);
    if (probeSink) [[unlikely]] {
        probeSink->onResolved({pc, table.predictTaken(index), taken});
    }
    const u8 before = table.value(index);
    table.update(index, taken);
    if (probeSink && table.value(index) != before) [[unlikely]] {
        probeSink->onCounterWrite({0, before, table.value(index)});
    }
    history.shiftIn(taken);
}

void
GSharePredictor::replayBlock(const BranchRecord *records,
                             std::size_t count,
                             ReplayCounters &counters,
                             ReplayScratch *scratch)
{
    if (probeSink) [[unlikely]] {
        // Scalar delegation keeps the event stream bit-identical.
        Predictor::replayBlock(records, count, counters, scratch);
        return;
    }
    if (scratch && simdIndexWidthOk(indexBits) &&
        resolveSimdMode(scratch->mode) == SimdMode::Avx2) {
        // Phase-split path (block_kernel_simd.hh): history is
        // outcome-determined, so compaction's speculative advance is
        // exact and each tile's indices vectorize up front.
        const bool prefetch = simdWantsCounterPrefetch(table.size());
        const u64 history_out = replayTiled(
            records, count, history.raw(), *scratch, 1,
            [&](std::size_t conditionals, u8 *mask) {
                fillGshareIndices(SimdMode::Avx2, scratch->pc.data(),
                                  scratch->history.data(),
                                  conditionals, historyBits_,
                                  indexBits,
                                  scratch->indices[0].data());
                resolveSingleTable(
                    table.view(), scratch->indices[0].data(),
                    scratch->taken.data(), conditionals, prefetch,
                    counters, mask, [&](std::size_t j) {
                        return u64(gshareIndex(scratch->pc[j],
                                               scratch->history[j],
                                               historyBits_,
                                               indexBits));
                    });
            });
        history.set(history_out);
        return;
    }
    replayBlockWithState(
        GShareBlockState{table.view(), history, historyBits_, indexBits,
                         &history},
        records, count, counters, scratch);
}

void
GSharePredictor::notifyUnconditional(Addr)
{
    history.shiftIn(true);
}

std::string
GSharePredictor::name() const
{
    return "gshare-" + formatEntries(table.size()) + "-h" +
        std::to_string(historyBits_);
}

void
GSharePredictor::reset()
{
    table.reset();
    history.reset();
}

void
GSharePredictor::saveState(ByteWriter &out) const
{
    table.saveState(out);
    out.putU64(history.raw());
}

void
GSharePredictor::loadState(ByteReader &in)
{
    table.loadState(in);
    history.set(in.getU64());
}

} // namespace bpred
