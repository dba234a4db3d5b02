/**
 * @file
 * The skewed branch predictor (gskewed) and its enhanced variant
 * (e-gskew) — the paper's primary contribution.
 */

#pragma once

#include <vector>

#include "predictors/history.hh"
#include "predictors/predictor.hh"
#include "support/sat_counter.hh"

namespace bpred
{

/** How bank counters are trained after a resolved branch (§4.1). */
enum class UpdatePolicy
{
    /** Every bank trains toward the outcome, unconditionally. */
    Total,

    /**
     * A bank that mispredicted is left untouched when the overall
     * (majority) prediction was correct; its entry is presumed to
     * belong to a different substream. On an overall misprediction
     * all banks train. This is the policy the paper recommends.
     */
    Partial,

    /**
     * Partial, plus: an agreeing bank already saturated in the
     * right direction is not rewritten. Prediction behaviour is
     * identical to Partial (a saturated counter does not move);
     * what changes is write traffic — an answer to the paper's
     * §7 question about further update policies, in the direction
     * the Alpha EV8 design later took to cut predictor array
     * write ports. Compare bankWrites() across policies.
     */
    PartialLazy,
};

/** How each bank computes its index (the skewing ablation knob). */
enum class BankIndexing
{
    /** The f0/f1/f2... skewing family — the paper's design. */
    Skewed,

    /**
     * Every bank uses the same gshare index: pure replication.
     * Exists to isolate how much of gskewed's gain comes from
     * inter-bank hash independence (ablation A3).
     */
    IdenticalGshare,
};

/**
 * The skewed branch predictor: an odd number of tag-less
 * saturating-counter banks, each indexed by a different skewing
 * hash of the same (address, history) vector, combined by majority
 * vote.
 *
 * The enhanced variant (§6) indexes bank 0 with the branch address
 * alone (plain bit truncation): when a long history blows up the
 * substream working set and banks 1/2 thrash, bank 0's short
 * "history" (none) keeps its last-use distances small and its vote
 * trustworthy — recovering capacity without giving up history.
 */
class SkewedPredictor : public Predictor
{
  public:
    /** Aggregated configuration (named-parameter construction). */
    struct Config
    {
        /** Number of banks; must be odd, 1 <= banks <= maxSkewBanks. */
        unsigned numBanks = 3;

        /** log2 of each bank's entry count. */
        unsigned bankIndexBits = 12;

        /** Global-history length k. */
        unsigned historyBits = 12;

        /** Counter width (1 or 2). */
        unsigned counterBits = 2;

        UpdatePolicy updatePolicy = UpdatePolicy::Partial;

        BankIndexing indexing = BankIndexing::Skewed;

        /** True selects the enhanced (e-gskew) bank-0 indexing. */
        bool enhanced = false;
    };

    explicit SkewedPredictor(const Config &config);

    /** Convenience constructor for the common 3-bank setup. */
    SkewedPredictor(unsigned num_banks, unsigned bank_index_bits,
                    unsigned history_bits,
                    UpdatePolicy policy = UpdatePolicy::Partial,
                    unsigned counter_bits = 2);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void replayBlock(const BranchRecord *records, std::size_t count,
                     ReplayCounters &counters,
                     ReplayScratch *scratch) override;
    void notifyUnconditional(Addr pc) override;
    std::string name() const override;
    u64 storageBits() const override;
    void reset() override;
    bool supportsSnapshot() const override { return true; }
    void saveState(ByteWriter &out) const override;
    void loadState(ByteReader &in) override;

    /** Number of banks. */
    unsigned numBanks() const { return config.numBanks; }

    /** Entries per bank. */
    u64 entriesPerBank() const { return u64(1) << config.bankIndexBits; }

    /** Total entries across banks. */
    u64 totalEntries() const { return numBanks() * entriesPerBank(); }

    /** The active configuration. */
    const Config &configuration() const { return config; }

    /**
     * The index each bank would use for (@p pc, current history) —
     * exposed for white-box tests and the Figure 3 demonstration.
     */
    std::vector<u64> bankIndices(Addr pc) const;

    /**
     * Counter-array writes performed so far (the predictor-port
     * pressure metric the PartialLazy policy reduces).
     */
    u64 bankWrites() const { return bankWriteCount; }

  private:
    /**
     * Validate @p config (fatal() on a bad bank count / geometry)
     * and pass it through — runs in the member-initializer list so
     * the checks precede the bank-group construction.
     */
    static const Config &validated(const Config &config);

    u64 bankIndexOf(unsigned bank, Addr pc) const;

    Config config;

    /**
     * All banks in one interleaved allocation (entry-major): the
     * counters the majority vote reads for one branch sit near each
     * other, and the phase-split resolve prefetches whole lines that
     * serve every bank. The group's saveState()/loadState() keep the
     * per-bank snapshot framing.
     */
    SatCounterBankGroup banks;
    GlobalHistory history;
    u64 bankWriteCount = 0;
};

/** Convenience alias constructor for the §6 enhanced predictor. */
SkewedPredictor::Config makeEnhancedConfig(unsigned bank_index_bits,
                                           unsigned history_bits,
                                           unsigned counter_bits = 2);

} // namespace bpred

