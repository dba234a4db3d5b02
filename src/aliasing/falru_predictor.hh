/**
 * @file
 * The fully-associative LRU *predictor* of Figure 8.
 */

#pragma once

#include "aliasing/fa_lru_table.hh"
#include "predictors/history.hh"
#include "predictors/predictor.hh"
#include "support/sat_counter.hh"

namespace bpred
{

/**
 * An N-entry fully-associative LRU table of saturating counters
 * keyed by the full (address, history) identity. Misses fall back
 * to a static always-taken prediction, exactly as in Figure 8 of
 * the paper ("for pairs missing in the fully-associative table, a
 * static prediction always taken was assumed").
 *
 * This structure is not buildable hardware at useful sizes — the
 * paper uses it as the yardstick for how much conflict aliasing a
 * hardware scheme could hope to remove, and gskewed is judged
 * against it.
 */
class FaLruPredictor : public Predictor
{
  public:
    /**
     * @param capacity Entry count N (need not be a power of two).
     * @param history_bits Global-history length k.
     * @param counter_bits Counter width (1 or 2).
     */
    FaLruPredictor(u64 capacity, unsigned history_bits,
                   unsigned counter_bits = 2);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void notifyUnconditional(Addr pc) override;
    std::string name() const override;

    /**
     * Counter bits plus full-identity tag bits per entry — an
     * honest account of why this design is not cost-effective
     * hardware (§3.3).
     */
    u64 storageBits() const override;

    void reset() override;

    bool supportsSnapshot() const override { return true; }
    void saveState(ByteWriter &out) const override;
    void loadState(ByteReader &in) override;

    /** Miss ratio in the underlying table (capacity + compulsory). */
    double missRatio() const { return table.missStat().ratio(); }

  private:
    u64 keyOf(Addr pc) const;

    FullyAssociativeLruTable table;
    GlobalHistory history;
    SatCounter prototype;
    unsigned historyBits;
    unsigned counterBits;
};

} // namespace bpred

