#include "predictors/hybrid.hh"

#include <cassert>

#include "predictors/block_kernel.hh"
#include "predictors/block_kernel_simd.hh"
#include "predictors/info_vector.hh"
#include "predictors/replay_scratch.hh"
#include "support/logging.hh"
#include "support/probe.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

namespace
{

/**
 * Hybrid hot state (see block_kernel.hh): the chooser view and its
 * index width stay in registers; the type-erased components remain
 * virtual calls — one dispatch per component per branch instead of
 * two plus the driver's own. commit() clears the predictor's cached
 * split-path prediction exactly when the scalar fused loop would
 * have (i.e. only if a conditional was actually stepped).
 */
struct HybridBlockState
{
    SatCounterArray::View chooser;
    unsigned chooserIndexBits;
    Predictor *first;
    Predictor *second;
    bool *havePredictionOut;
    bool steppedConditional = false;

    bool
    step(Addr pc, bool taken)
    {
        const u64 chooser_index = addressIndex(pc, chooserIndexBits);
        const bool use_first = chooser.predictTaken(chooser_index);
        const bool first_prediction =
            first->predictAndUpdate(pc, taken).prediction;
        const bool second_prediction =
            second->predictAndUpdate(pc, taken).prediction;
        if (first_prediction != second_prediction) {
            chooser.update(chooser_index, first_prediction == taken);
        }
        steppedConditional = true;
        return use_first ? first_prediction : second_prediction;
    }

    void
    unconditional(Addr pc)
    {
        first->notifyUnconditional(pc);
        second->notifyUnconditional(pc);
    }

    void
    commit()
    {
        if (steppedConditional) {
            *havePredictionOut = false;
        }
    }
};

} // namespace

HybridPredictor::HybridPredictor(std::unique_ptr<Predictor> first,
                                 std::unique_ptr<Predictor> second,
                                 unsigned chooser_index_bits)
    : firstComponent(std::move(first)),
      secondComponent(std::move(second)),
      chooser(u64(1) << chooser_index_bits, 2,
              2 /* weakly prefer first */),
      chooserIndexBits(chooser_index_bits)
{
    assert(firstComponent && secondComponent);
}

bool
HybridPredictor::predict(Addr pc)
{
    firstPrediction = firstComponent->predict(pc);
    secondPrediction = secondComponent->predict(pc);
    predictedPc = pc;
    havePrediction = true;
    const bool use_first =
        chooser.predictTaken(addressIndex(pc, chooserIndexBits));
    return use_first ? firstPrediction : secondPrediction;
}

void
HybridPredictor::update(Addr pc, bool taken)
{
    if (!havePrediction || predictedPc != pc) {
        // Tolerate a missing predict() (e.g. warm-up replay): obtain
        // component predictions now so the chooser can still train.
        firstPrediction = firstComponent->predict(pc);
        secondPrediction = secondComponent->predict(pc);
    }
    havePrediction = false;

    if (probeSink) [[unlikely]] {
        const bool use_first =
            chooser.predictTaken(addressIndex(pc, chooserIndexBits));
        const bool overall =
            use_first ? firstPrediction : secondPrediction;
        probeSink->onResolved({pc, overall, taken});
        probeSink->onChoice({use_first,
                             firstPrediction != secondPrediction,
                             overall == taken});
    }

    if (firstPrediction != secondPrediction) {
        // Strengthen toward the component that was right.
        chooser.update(addressIndex(pc, chooserIndexBits),
                       firstPrediction == taken);
    }
    firstComponent->update(pc, taken);
    secondComponent->update(pc, taken);
}

Outcome
HybridPredictor::predictAndUpdate(Addr pc, bool taken)
{
    if (probeSink) [[unlikely]] {
        // Off the hot loop; reuse the split implementation so event
        // order stays identical to predict()+update().
        const bool prediction = predict(pc);
        update(pc, taken);
        return {prediction};
    }
    // One chooser index computation and one pass over each
    // component: the fused component calls return the pre-update
    // predictions the chooser needs while training the components.
    // The chooser table is independent of both components, so
    // reading it here (instead of before the component updates)
    // sees the same counter value the split path read in predict().
    const u64 chooser_index = addressIndex(pc, chooserIndexBits);
    const bool use_first = chooser.predictTaken(chooser_index);
    const bool first = firstComponent->predictAndUpdate(pc, taken)
                           .prediction;
    const bool second = secondComponent->predictAndUpdate(pc, taken)
                            .prediction;
    if (first != second) {
        chooser.update(chooser_index, first == taken);
    }
    havePrediction = false;
    return {use_first ? first : second};
}

void
HybridPredictor::replayBlock(const BranchRecord *records,
                             std::size_t count,
                             ReplayCounters &counters,
                             ReplayScratch *scratch)
{
    if (probeSink) [[unlikely]] {
        // Scalar delegation keeps the event stream bit-identical.
        Predictor::replayBlock(records, count, counters, scratch);
        return;
    }
    if (scratch && simdIndexWidthOk(chooserIndexBits) &&
        resolveSimdMode(scratch->mode) == SimdMode::Avx2 &&
        simdWantsCounterPrefetch(chooser.size())) {
        // Phase-split pays for itself here only through the chooser
        // prefetch: the address index is one shift-and-mask, so for
        // an L1-resident chooser the staging pass is pure overhead
        // on top of the dominant virtual component calls — those
        // configurations take the fused kernel below instead.
        // Phase-split for the chooser only: its address index has no
        // history dependence, so the chooser indices vectorize up
        // front, one L1-resident tile at a time (staging the whole
        // block would stream ~20x the tile through the scratch
        // arrays). The type-erased components still resolve per
        // branch (their virtual fused step dominates here), so the
        // resolve walks the tile's original records with a cursor
        // into the precomputed indices.
        SatCounterArray::View chooser_view = chooser.view();
        // Tested per record, not hoisted: the two virtual component
        // calls per branch dwarf one predictable branch.
        u8 *const mask = mispredictMask(scratch);
        u64 conditionals = 0;
        u64 mispredicts = 0;
        for (std::size_t tile = 0; tile < count;
             tile += simdTileRecords) {
            const std::size_t tile_count =
                std::min(simdTileRecords, count - tile);
            const BranchRecord *tile_records = records + tile;
            scratch->ensure(tile_count, 1);
            u64 history_out = 0;
            const std::size_t chooser_count = compactConditionals(
                tile_records, tile_count, 0, *scratch, &history_out);
            fillAddressIndices(SimdMode::Avx2, scratch->pc.data(),
                               chooser_count, chooserIndexBits,
                               scratch->indices[0].data());
            const u32 *chooser_idx = scratch->indices[0].data();
            std::size_t cursor = 0;
            for (std::size_t i = 0; i < tile_count; ++i) {
                const BranchRecord &record = tile_records[i];
                if (!record.conditional) {
                    firstComponent->notifyUnconditional(record.pc);
                    secondComponent->notifyUnconditional(record.pc);
                    continue;
                }
                if (cursor + simdPrefetchDistance < chooser_count) {
                    __builtin_prefetch(
                        &chooser_view.at(
                            chooser_idx[cursor +
                                        simdPrefetchDistance]),
                        1);
                }
                const u64 chooser_index = chooser_idx[cursor];
#ifdef BPRED_CHECKED
                if (chooser_index !=
                    u64(addressIndex(record.pc, chooserIndexBits)))
                    [[unlikely]] {
                    noteIndexRepair();
                }
#endif
                const bool use_first =
                    chooser_view.predictTaken(chooser_index);
                const bool first_prediction =
                    firstComponent
                        ->predictAndUpdate(record.pc, record.taken)
                        .prediction;
                const bool second_prediction =
                    secondComponent
                        ->predictAndUpdate(record.pc, record.taken)
                        .prediction;
                if (first_prediction != second_prediction) {
                    chooser_view.update(chooser_index,
                                        first_prediction ==
                                            record.taken);
                }
                const bool prediction =
                    use_first ? first_prediction : second_prediction;
                if (mask) {
                    mask[conditionals] = u8(prediction != record.taken);
                }
                ++conditionals;
                mispredicts += u64(prediction != record.taken);
                ++cursor;
            }
        }
        if (conditionals != 0) {
            havePrediction = false;
        }
        counters.conditionals += conditionals;
        counters.mispredicts += mispredicts;
        return;
    }
    // The kernel devirtualizes the hybrid's own fused step (chooser
    // read + train); the component calls inside it stay virtual —
    // components are type-erased (see HybridBlockState).
    replayBlockWithState(
        HybridBlockState{chooser.view(), chooserIndexBits,
                         firstComponent.get(), secondComponent.get(),
                         &havePrediction},
        records, count, counters, scratch);
}

void
HybridPredictor::notifyUnconditional(Addr pc)
{
    firstComponent->notifyUnconditional(pc);
    secondComponent->notifyUnconditional(pc);
}

std::string
HybridPredictor::name() const
{
    return "hybrid(" + firstComponent->name() + "," +
        secondComponent->name() + ")";
}

u64
HybridPredictor::storageBits() const
{
    return firstComponent->storageBits() +
        secondComponent->storageBits() + chooser.storageBits();
}

void
HybridPredictor::reset()
{
    firstComponent->reset();
    secondComponent->reset();
    chooser.reset(2);
    havePrediction = false;
}

bool
HybridPredictor::supportsSnapshot() const
{
    return firstComponent->supportsSnapshot() &&
        secondComponent->supportsSnapshot();
}

void
HybridPredictor::saveState(ByteWriter &out) const
{
    // Snapshots are taken at branch boundaries, where the cached
    // component predictions are dead state — only the tables and
    // chooser travel.
    firstComponent->saveState(out);
    secondComponent->saveState(out);
    chooser.saveState(out);
}

void
HybridPredictor::loadState(ByteReader &in)
{
    firstComponent->loadState(in);
    secondComponent->loadState(in);
    chooser.loadState(in);
    havePrediction = false;
}

} // namespace bpred
