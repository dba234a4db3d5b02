/**
 * @file
 * A distributed predictor encoding for skewed banks (§7, future
 * work: "do there exist alternative 'distributed' predictor
 * encodings that are more space efficient?").
 *
 * Each bank splits its 2-bit counters into a full-size array of
 * *prediction* bits and a half-size array of *hysteresis* bits
 * shared by pairs of adjacent entries — 1.5 bits per entry instead
 * of 2. The direction bit stays private, so the majority vote is
 * unchanged; only the strengthening state can be perturbed by the
 * neighbour entry. This is the direction the Alpha EV8 predictor
 * (derived from e-gskew) later took.
 */

#pragma once

#include <vector>

#include "core/skewed_predictor.hh"
#include "predictors/history.hh"
#include "predictors/predictor.hh"

namespace bpred
{

/**
 * gskewed / e-gskew with the shared-hysteresis bank encoding.
 *
 * Geometry and indexing mirror SkewedPredictor (same skewing
 * functions, same enhanced bank-0 option, partial or total update);
 * only the bank storage differs: per entry, a private prediction
 * bit plus a hysteresis bit shared with the entry's neighbour
 * (index ^ 1), for 1.5 bits/entry.
 */
class SharedHysteresisSkewedPredictor : public Predictor
{
  public:
    explicit SharedHysteresisSkewedPredictor(
        const SkewedPredictor::Config &config);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void notifyUnconditional(Addr pc) override;
    std::string name() const override;

    /** 1.5 bits per entry: entries + entries/2 hysteresis bits. */
    u64 storageBits() const override;

    void reset() override;
    bool supportsSnapshot() const override { return true; }
    void saveState(ByteWriter &out) const override;
    void loadState(ByteReader &in) override;

    /** Entries per bank. */
    u64 entriesPerBank() const { return u64(1) << config.bankIndexBits; }

  private:
    struct Bank
    {
        /** One direction bit per entry. */
        std::vector<u8> prediction;

        /** One hysteresis bit per entry *pair* (indexed i >> 1). */
        std::vector<u8> hysteresis;
    };

    u64 bankIndexOf(unsigned bank, Addr pc) const;
    bool bankPredicts(const Bank &bank, u64 index) const;
    void bankTrain(Bank &bank, u64 index, bool taken);

    SkewedPredictor::Config config;
    std::vector<Bank> banks;
    GlobalHistory history;
};

} // namespace bpred

