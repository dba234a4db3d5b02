/**
 * @file
 * The single-table predictors: one tag-less counter table under one
 * index function of (address, global history).
 */

#pragma once

#include "predictors/history.hh"
#include "predictors/info_vector.hh"
#include "predictors/predictor.hh"
#include "support/sat_counter.hh"

namespace bpred
{

/**
 * One tag-less table of 2^n saturating counters indexed by one
 * function of the branch address and the global history: bimodal
 * [Smith '81], gshare [McFarling '93] or gselect (GAs), the
 * single-bank organization the paper's skewed predictor generalizes.
 * BimodalPredictor, GSharePredictor and GSelectPredictor
 * are its constructors (bimodal.hh, gshare.hh, gselect.hh).
 *
 * One split predict()/update() pair is the reference; replayBlock()
 * runs the block kernel or, under a vector SimdMode, the phase-split
 * kernels, which resolve the table as a 1-bank group
 * (block_kernel_simd.hh). gshare and gselect shift the global
 * history on every branch; bimodal's register stays zero, and its
 * name and snapshot carry no history.
 */
class SingleTablePredictor : public Predictor
{
  public:
    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void replayBlock(const BranchRecord *records, std::size_t count,
                     ReplayCounters &counters,
                     ReplayScratch *scratch) override;
    void notifyUnconditional(Addr pc) override;
    std::string name() const override;
    u64 storageBits() const override { return table.storageBits(); }
    void reset() override;
    bool supportsSnapshot() const override { return true; }
    void saveState(ByteWriter &out) const override;
    void loadState(ByteReader &in) override;

    /** History length in bits (0 for bimodal). */
    unsigned historyBits() const { return historyBits_; }

  protected:
    /**
     * @param index The index function (info_vector.hh).
     * @param index_bits log2 of the table size (1..maxIndexBits).
     * @param history_bits Global-history length k (at most 64).
     * @param counter_bits Counter width (1..8).
     */
    SingleTablePredictor(TableIndex index, unsigned index_bits,
                         unsigned history_bits, unsigned counter_bits);

  private:
    TableIndex index;
    SatCounterArray table;
    GlobalHistory history;
    unsigned indexBits;
    unsigned historyBits_;
};

} // namespace bpred
