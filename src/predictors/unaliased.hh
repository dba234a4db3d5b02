/**
 * @file
 * The ideal unaliased predictor: an infinite table with one
 * dedicated counter per (address, history) pair.
 */

#pragma once

#include "predictors/history.hh"
#include "predictors/predictor.hh"
#include "support/sat_counter.hh"
#include "support/site_table.hh"
#include "support/stats.hh"

namespace bpred
{

/**
 * The unaliased predictor of Table 2: every branch substream —
 * every distinct (address, history) pair — gets a private
 * saturating counter, so no aliasing of any kind occurs.
 *
 * Beyond predicting, it measures the paper's Table 2 columns:
 *
 *  - substream ratio: distinct (address, history) pairs per distinct
 *    branch address;
 *  - compulsory aliasing: first-time references over dynamic
 *    conditional branches;
 *  - misprediction ratio excluding first encounters (the paper does
 *    not charge compulsory references as mispredictions).
 *
 * On a first encounter the new counter is initialized strongly
 * toward the observed outcome.
 */
class UnaliasedPredictor : public Predictor
{
  public:
    /**
     * @param history_bits Global-history length k.
     * @param counter_bits Counter width (1 or 2).
     */
    UnaliasedPredictor(unsigned history_bits, unsigned counter_bits = 2);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void notifyUnconditional(Addr pc) override;
    std::string name() const override;

    /**
     * An infinite structure has no meaningful hardware budget;
     * reports the bits currently allocated.
     */
    u64 storageBits() const override;

    void reset() override;

    bool supportsSnapshot() const override { return true; }

    /**
     * Serialize counters and static-branch addresses in sorted key
     * order so the byte stream is independent of the hash tables'
     * internal layout (which depends on insertion history).
     */
    void saveState(ByteWriter &out) const override;
    void loadState(ByteReader &in) override;

    /** Distinct (address, history) pairs seen. */
    u64 numSubstreams() const { return counters.size(); }

    /** Distinct conditional branch addresses seen. */
    u64 numStaticBranches() const { return staticBranches.size(); }

    /** Average substreams per static branch (Table 2, column 1). */
    double substreamRatio() const;

    /** First-encounter references / dynamic branches (Table 2, col 2). */
    double compulsoryAliasingRatio() const;

    /**
     * Misprediction ratio among non-first-encounter references
     * (Table 2, columns 3-4).
     */
    double mispredictionRatio() const { return warmMispredicts.ratio(); }

    /** Dynamic conditional branches observed. */
    u64 dynamicBranches() const { return dynamicCount; }

  private:
    u64 keyOf(Addr pc) const;

    FlatTable<SatCounter> counters;
    FlatTable<NoValue> staticBranches;
    GlobalHistory history;
    RatioStat warmMispredicts;
    u64 dynamicCount = 0;
    u64 compulsoryCount = 0;
    unsigned historyBits;
    unsigned counterBits;

    // predict() result latched for the paired update().
    bool lastPredictionValid = false;
    bool lastPrediction = false;
    bool lastWasCold = false;
};

} // namespace bpred

