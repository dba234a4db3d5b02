#include "predictors/bimodal.hh"

#include "predictors/block_kernel.hh"
#include "predictors/block_kernel_simd.hh"
#include "predictors/info_vector.hh"
#include "predictors/replay_scratch.hh"
#include "support/probe.hh"
#include "support/table.hh"

namespace bpred
{

namespace
{

/**
 * Bimodal hot state lifted into locals (see block_kernel.hh): the
 * raw counter view and index width live in registers for the whole
 * block instead of being re-loaded after every counter store.
 */
struct BimodalBlockState
{
    SatCounterArray::View table;
    unsigned indexBits;

    bool
    step(Addr pc, bool taken)
    {
        const u64 index = addressIndex(pc, indexBits);
        const bool prediction = table.predictTaken(index);
        table.update(index, taken);
        return prediction;
    }

    void unconditional(Addr) {}
    void commit() {}
};

} // namespace

BimodalPredictor::BimodalPredictor(unsigned index_bits,
                                   unsigned counter_bits)
    : table(u64(1) << checkedIndexBits("bimodal", index_bits),
            counter_bits),
      indexBits(index_bits)
{
}

u64
BimodalPredictor::indexOf(Addr pc) const
{
    return addressIndex(pc, indexBits);
}

bool
BimodalPredictor::predict(Addr pc)
{
    return table.predictTaken(indexOf(pc));
}

void
BimodalPredictor::update(Addr pc, bool taken)
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
}

void
BimodalPredictor::replayBlock(const BranchRecord *records,
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
        // Phase-split path (block_kernel_simd.hh): the address index
        // has no history dependence at all, so each tile's indices
        // vectorize up front.
        const bool prefetch = simdWantsCounterPrefetch(table.size());
        replayTiled(
            records, count, 0, *scratch, 1,
            [&](std::size_t conditionals, u8 *mask) {
                fillAddressIndices(SimdMode::Avx2, scratch->pc.data(),
                                   conditionals, indexBits,
                                   scratch->indices[0].data());
                resolveSingleTable(
                    table.view(), scratch->indices[0].data(),
                    scratch->taken.data(), conditionals, prefetch,
                    counters, mask, [&](std::size_t j) {
                        return u64(addressIndex(scratch->pc[j],
                                                indexBits));
                    });
            });
        return;
    }
    replayBlockWithState(BimodalBlockState{table.view(), indexBits},
                         records, count, counters, scratch);
}

std::string
BimodalPredictor::name() const
{
    return "bimodal-" + formatEntries(table.size());
}

void
BimodalPredictor::reset()
{
    table.reset();
}

void
BimodalPredictor::saveState(ByteWriter &out) const
{
    table.saveState(out);
}

void
BimodalPredictor::loadState(ByteReader &in)
{
    table.loadState(in);
}

} // namespace bpred
