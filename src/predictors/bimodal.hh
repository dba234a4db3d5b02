/**
 * @file
 * Bimodal (Smith) predictor: a PC-indexed table of saturating
 * counters.
 */

#pragma once

#include "predictors/predictor.hh"
#include "support/sat_counter.hh"

namespace bpred
{

/**
 * The classic Smith predictor [Smith '81]: 2^n saturating counters
 * indexed by low-order branch-address bits. It uses no history, so
 * it anchors the baseline comparisons and serves as the bimodal
 * component of the McFarling hybrid.
 */
class BimodalPredictor : public Predictor
{
  public:
    /**
     * @param index_bits log2 of the table size (1..maxIndexBits).
     * @param counter_bits Counter width (1 or 2 in the paper).
     */
    BimodalPredictor(unsigned index_bits, unsigned counter_bits = 2);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void replayBlock(const BranchRecord *records, std::size_t count,
                     ReplayCounters &counters,
                     ReplayScratch *scratch) override;
    std::string name() const override;
    u64 storageBits() const override { return table.storageBits(); }
    void reset() override;
    bool supportsSnapshot() const override { return true; }
    void saveState(ByteWriter &out) const override;
    void loadState(ByteReader &in) override;

  private:
    u64 indexOf(Addr pc) const;

    SatCounterArray table;
    unsigned indexBits;
};

} // namespace bpred

