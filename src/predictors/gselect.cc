#include "predictors/gselect.hh"

#include "predictors/block_kernel.hh"
#include "predictors/block_kernel_simd.hh"
#include "predictors/info_vector.hh"
#include "predictors/replay_scratch.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

namespace
{

/**
 * gselect hot state lifted into locals (see block_kernel.hh);
 * mirrors GShareBlockState with the concatenating index function.
 */
struct GSelectBlockState
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
            gselectIndex(pc, history.raw(), historyBits, indexBits);
        const bool prediction = table.predictTaken(index);
        table.update(index, taken);
        history.shiftIn(taken);
        return prediction;
    }

    void unconditional(Addr) { history.shiftIn(true); }
    void commit() { *historyOut = history; }
};

} // namespace

GSelectPredictor::GSelectPredictor(unsigned index_bits,
                                   unsigned history_bits,
                                   unsigned counter_bits)
    : table(u64(1) << checkedIndexBits("gselect", index_bits),
            counter_bits),
      indexBits(index_bits),
      historyBits_(checkedHistoryBits("gselect", history_bits))
{
}

u64
GSelectPredictor::indexOf(Addr pc) const
{
    return gselectIndex(pc, history.raw(), historyBits_, indexBits);
}

bool
GSelectPredictor::predict(Addr pc)
{
    return table.predictTaken(indexOf(pc));
}

void
GSelectPredictor::update(Addr pc, bool taken)
{
    table.update(indexOf(pc), taken);
    history.shiftIn(taken);
}

void
GSelectPredictor::replayBlock(const BranchRecord *records,
                              std::size_t count,
                              ReplayCounters &counters,
                              ReplayScratch *scratch)
{
    if (probeSink) [[unlikely]] {
        // Scalar delegation keeps any future event stream identical.
        Predictor::replayBlock(records, count, counters, scratch);
        return;
    }
    if (scratch && simdIndexWidthOk(indexBits) &&
        resolveSimdMode(scratch->mode) == SimdMode::Avx2) {
        // Phase-split path (block_kernel_simd.hh); see gshare.cc for
        // why the speculative history advance is exact.
        const bool prefetch = simdWantsCounterPrefetch(table.size());
        const u64 history_out = replayTiled(
            records, count, history.raw(), *scratch, 1,
            [&](std::size_t conditionals, u8 *mask) {
                fillGselectIndices(SimdMode::Avx2, scratch->pc.data(),
                                   scratch->history.data(),
                                   conditionals, historyBits_,
                                   indexBits,
                                   scratch->indices[0].data());
                resolveSingleTable(
                    table.view(), scratch->indices[0].data(),
                    scratch->taken.data(), conditionals, prefetch,
                    counters, mask, [&](std::size_t j) {
                        return u64(gselectIndex(scratch->pc[j],
                                                scratch->history[j],
                                                historyBits_,
                                                indexBits));
                    });
            });
        history.set(history_out);
        return;
    }
    replayBlockWithState(
        GSelectBlockState{table.view(), history, historyBits_, indexBits,
                          &history},
        records, count, counters, scratch);
}

void
GSelectPredictor::notifyUnconditional(Addr)
{
    history.shiftIn(true);
}

std::string
GSelectPredictor::name() const
{
    return "gselect-" + formatEntries(table.size()) + "-h" +
        std::to_string(historyBits_);
}

void
GSelectPredictor::reset()
{
    table.reset();
    history.reset();
}

void
GSelectPredictor::saveState(ByteWriter &out) const
{
    table.saveState(out);
    out.putU64(history.raw());
}

void
GSelectPredictor::loadState(ByteReader &in)
{
    table.loadState(in);
    history.set(in.getU64());
}

} // namespace bpred
