/**
 * @file
 * McFarling combining (hybrid) predictor.
 */

#pragma once

#include <memory>

#include "predictors/predictor.hh"
#include "predictors/replay_scratch.hh"
#include "support/sat_counter.hh"

namespace bpred
{

/**
 * McFarling's combining predictor: two component predictors plus a
 * PC-indexed chooser table of 2-bit counters that learns, per
 * branch, which component to trust. The chooser trains only when
 * the components disagree; the components train independently of
 * it, which lets replayBlock() replay each component over the whole
 * block before the chooser walks it.
 *
 * Listed by the paper as one of the hybrid schemes its skewing
 * technique composes with; used here as a baseline.
 */
class HybridPredictor : public Predictor
{
  public:
    /**
     * @param first First component (chooser counter high = trust it).
     * @param second Second component.
     * @param chooser_index_bits log2 of the chooser-table size
     *        (1..maxIndexBits).
     */
    HybridPredictor(std::unique_ptr<Predictor> first,
                    std::unique_ptr<Predictor> second,
                    unsigned chooser_index_bits);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void replayBlock(const BranchRecord *records, std::size_t count,
                     ReplayCounters &counters,
                     ReplayScratch *scratch) override;
    void notifyUnconditional(Addr pc) override;
    std::string name() const override;
    u64 storageBits() const override;
    void reset() override;

    /** Snapshots compose: supported when both components support it. */
    bool supportsSnapshot() const override;
    void saveState(ByteWriter &out) const override;
    void loadState(ByteReader &in) override;

  private:
    std::unique_ptr<Predictor> firstComponent;
    std::unique_ptr<Predictor> secondComponent;
    SatCounterArray chooser;
    unsigned chooserIndexBits;

    /**
     * What the components replay into (see replayBlock()): their
     * mispredict masks carry every conditional's component
     * predictions. firstMispredicts holds the first component's mask
     * while the second replays.
     */
    ReplayScratch componentScratch;
    AlignedVector<u8> firstMispredicts;

    // predict() caches component predictions for update().
    bool firstPrediction = false;
    bool secondPrediction = false;
    Addr predictedPc = 0;
    bool havePrediction = false;
};

} // namespace bpred

