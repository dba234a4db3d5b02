/**
 * @file
 * The skewed branch predictor family — the paper's primary
 * contribution: gskewed (§4), e-gskew (§6), and §7's two
 * extensions, the shared-hysteresis encoding (gskewedsh, egskewsh)
 * and per-address history (pskew).
 */

#pragma once

#include <vector>

#include "predictors/bank_vote.hh"
#include "predictors/history.hh"
#include "predictors/predictor.hh"
#include "support/sat_counter.hh"

namespace bpred
{

/** How each bank computes its index. */
enum class BankIndexing
{
    /** The f0/f1/f2... skewing family — the paper's design. */
    Skewed,

    /**
     * e-gskew (§6): bank 0 sees the branch address alone (plain bit
     * truncation), the other banks skew as above.
     */
    Enhanced,

    /**
     * Every bank uses the same gshare index: pure replication.
     * Exists to isolate how much of gskewed's gain comes from
     * inter-bank hash independence (ablation A3).
     */
    IdenticalGshare,
};

/** What each bank entry stores. */
enum class BankStorage
{
    /** One saturating counter per entry. */
    Counters,

    /**
     * §7's distributed encoding: a private prediction bit per entry
     * plus a hysteresis bit shared by the entry pair {2i, 2i + 1},
     * 1.5 bits per entry instead of 2. The pair is one 2-bit
     * counter, prediction bit high; prediction bits start at 0 and
     * hysteresis bits at 1 (weakly not-taken). The direction bit
     * stays private, so the vote reads no neighbour state; only the
     * strengthening state can be perturbed by the neighbour entry.
     * This is the direction the Alpha EV8 predictor (derived from
     * e-gskew) later took.
     */
    SharedHysteresis,
};

/**
 * The skewed branch predictor: an odd number of tag-less banks,
 * each indexed by a different skewing hash of the same (address,
 * history) vector, combined by majority vote.
 *
 * The enhanced variant (§6) indexes bank 0 with the branch address
 * alone: when a long history blows up the substream working set and
 * banks 1/2 thrash, bank 0's short "history" (none) keeps its
 * last-use distances small and its vote trustworthy — recovering
 * capacity without giving up history.
 *
 * Every scheme of the family is a Config: the factory maps gskewed,
 * egskew, gskewedsh, egskewsh and pskew onto one each, and the
 * constructor rejects any combination none of them (or the ablation
 * knobs of Config) produces. One split predict()/update() pair is
 * the reference the replay kernels are tested against, beside the
 * textbook oracle in tests/paper_reference.hh. replayBlock() runs
 * the block kernel or, for counter storage under a vector SimdMode,
 * the phase-split kernels.
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

        /**
         * History length k: global, at most maxKeyHistoryBits, or
         * local (1..16) under per-address history.
         */
        unsigned historyBits = 12;

        /** Counter width (1..8; 2 under shared hysteresis). */
        unsigned counterBits = 2;

        UpdatePolicy updatePolicy = UpdatePolicy::Partial;

        /** Skewed or Enhanced only for the §7 extensions. */
        BankIndexing indexing = BankIndexing::Skewed;

        BankStorage storage = BankStorage::Counters;

        /**
         * Where the history half of the information vector comes
         * from. 0: the global outcome register. Otherwise §7's
         * per-address history (pskew) with 2^bhtIndexBits entries: a
         * first-level table of local histories, picked by the low
         * address bits, feeds the banks in place of the global
         * register (a PAg whose pattern table is replaced by skewed
         * banks). Different branches with the same local history
         * fight over one PAg counter; the skewed banks mix the
         * address in and separate them. Needs Skewed indexing and
         * counter storage.
         */
        unsigned bhtIndexBits = 0;
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
     * Bank-entry writes performed so far (the predictor-port
     * pressure metric the PartialLazy policy reduces). Only gskewed
     * and e-gskew snapshot it.
     */
    u64 bankWrites() const { return bankWriteCount; }

  private:
    /**
     * Validate @p config (fatal() on a combination no scheme
     * produces or a bad geometry) and pass it through — runs in the
     * member-initializer list so the checks precede the bank-group
     * construction.
     */
    static const Config &validated(const Config &config);

    /** The history value bank indices read for a branch at @p pc. */
    u64 historyFor(Addr pc) const;

    /**
     * Call @p body.template operator()<NumBanks, Storage, PerAddress>()
     * for this predictor's shape: one instantiation per bank count,
     * storage and history source the constructor admits.
     */
    template <typename Body>
    void withShape(Body &&body);

    /** A fresh block state (see the .cc) over the banks and history. */
    template <unsigned NumBanks, BankStorage Storage, bool PerAddress>
    auto blockState();

    Config config;

    /**
     * All banks in one interleaved allocation (entry-major): the
     * entries the majority vote reads for one branch sit near each
     * other, and the phase-split resolve prefetches whole lines that
     * serve every bank. Holds the counters, or under shared
     * hysteresis the 1-bit prediction entries.
     */
    SatCounterArray banks;

    /** Shared hysteresis: one bit per entry pair; else empty. */
    SatCounterArray hysteresis;

    /** Per-address history: the local histories; else empty. */
    std::vector<u16> localHistories;

    /** The global history register (unused under per-address). */
    GlobalHistory history;

    u64 bankWriteCount = 0;
};

/** Convenience alias constructor for the §6 enhanced predictor. */
SkewedPredictor::Config makeEnhancedConfig(unsigned bank_index_bits,
                                           unsigned history_bits,
                                           unsigned counter_bits = 2);

} // namespace bpred
