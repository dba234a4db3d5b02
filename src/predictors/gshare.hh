/**
 * @file
 * gshare global-history predictor [McFarling '93].
 */

#pragma once

#include "predictors/history.hh"
#include "predictors/predictor.hh"
#include "support/sat_counter.hh"

namespace bpred
{

/**
 * gshare: one tag-less table of 2^n saturating counters indexed by
 * XOR of low-order branch-address bits with the global history
 * (history aligned to the high-order end of the index when shorter
 * than it). This is the paper's reference single-bank organization.
 */
class GSharePredictor : public Predictor
{
  public:
    /**
     * @param index_bits log2 of the table size (1..maxIndexBits).
     * @param history_bits Global-history length k (at most 64).
     * @param counter_bits Counter width (1 or 2).
     */
    GSharePredictor(unsigned index_bits, unsigned history_bits,
                    unsigned counter_bits = 2);

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

    /** History length in bits. */
    unsigned historyBits() const { return historyBits_; }

  private:
    u64 indexOf(Addr pc) const;

    SatCounterArray table;
    GlobalHistory history;
    unsigned indexBits;
    unsigned historyBits_;
};

} // namespace bpred

