#include "predictors/hybrid.hh"

#include <cassert>
#include <utility>

#include "predictors/block_kernel.hh"
#include "predictors/info_vector.hh"
#include "predictors/replay_scratch.hh"
#include "support/probe.hh"
#include "support/serialize.hh"

namespace bpred
{

namespace
{

/**
 * The chooser's walk over a block whose components have already
 * replayed (see block_kernel.hh): each conditional's component
 * predictions come from their mispredict masks (taken ^ wrong), so
 * the step reads and trains only the chooser — no virtual call.
 * Whether the components disagree is data, so the chooser trains
 * branchlessly: a counter that should not move is stored back as is.
 */
struct ChooserWalk
{
    SatCounterArray::View chooser;
    unsigned chooserIndexBits;
    const u8 *firstWrong;
    const u8 *secondWrong;
    std::size_t next = 0;

    bool
    step(Addr pc, bool taken)
    {
        const int first_wrong = firstWrong[next];
        const int second_wrong = secondWrong[next];
        ++next;
        u8 &counter = chooser.at(addressIndex(pc, chooserIndexBits));
        const bool use_first = counter >= chooser.threshold;
        // Strengthen toward the component that was right, when
        // exactly one was.
        const int disagree = first_wrong ^ second_wrong;
        counter = static_cast<u8>(
            counter +
            disagree * counterDelta(counter, first_wrong ^ 1, chooser.max));
        // The chosen component's answer, selected by arithmetic: as a
        // ternary, GCC may emit a branch on the chooser's direction.
        const int wrong = second_wrong ^ (disagree & int(use_first));
        return taken != (wrong != 0);
    }

    void unconditional(Addr) {}
    void commit() {}
};

} // namespace

HybridPredictor::HybridPredictor(std::unique_ptr<Predictor> first,
                                 std::unique_ptr<Predictor> second,
                                 unsigned chooser_index_bits)
    : firstComponent(std::move(first)),
      secondComponent(std::move(second)),
      chooser(u64(1) << checkedIndexBits("hybrid", chooser_index_bits),
              2, 2 /* weakly prefer first */),
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
    // Neither component reads the chooser, so each replays the whole
    // block through its own kernel first (in the caller's dispatch
    // mode), recording its mispredict mask; the chooser then walks
    // the block once over the two masks.
    componentScratch.mode = scratch ? scratch->mode : SimdMode::Scalar;
    componentScratch.recordMispredicts = true;
    ReplayCounters component_counters;
    componentScratch.ensureMispredicts(count);
    firstComponent->replayBlock(records, count, component_counters,
                                &componentScratch);
    std::swap(firstMispredicts, componentScratch.mispredicted);
    componentScratch.ensureMispredicts(count);
    secondComponent->replayBlock(records, count, component_counters,
                                 &componentScratch);
    replayBlockWithState(
        ChooserWalk{chooser.view(), chooserIndexBits,
                    firstMispredicts.data(),
                    componentScratch.mispredicted.data()},
        records, count, counters, scratch);
    // As after a split predict()/update() pair: no cached prediction.
    if (component_counters.conditionals != 0) {
        havePrediction = false;
    }
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
