/**
 * @file
 * The YAGS predictor (Eden & Mudge, MICRO 1998): the successor
 * generation of de-aliasing designs — bi-mode's segregation plus
 * small *tagged* exception caches that store only the branches
 * that disagree with their bias.
 */

#pragma once

#include <vector>

#include "predictors/history.hh"
#include "predictors/predictor.hh"
#include "support/sat_counter.hh"

namespace bpred
{

/**
 * YAGS: a PC-indexed choice table gives each branch's bias; two
 * direction caches (one consulted when the bias says taken, one
 * when it says not-taken) hold 2-bit counters *with small tags*
 * and are filled only on exceptions — when a branch goes against
 * its bias. A tag hit overrides the bias; a miss predicts the
 * bias. Tags let unrelated branches coexist without the full cost
 * of a tagged predictor (§3.3's objection): only the exception
 * minority needs tags.
 */
class YagsPredictor : public Predictor
{
  public:
    /**
     * @param cache_index_bits log2 of each direction cache.
     * @param history_bits Global-history length for cache indexing.
     * @param choice_index_bits log2 of the choice table.
     * @param tag_bits Tag width per cache entry (6-8 typical, at
     *        most 16).
     */
    YagsPredictor(unsigned cache_index_bits, unsigned history_bits,
                  unsigned choice_index_bits, unsigned tag_bits = 6);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void notifyUnconditional(Addr pc) override;
    std::string name() const override;
    u64 storageBits() const override;
    void reset() override;
    bool supportsSnapshot() const override { return true; }
    void saveState(ByteWriter &out) const override;
    void loadState(ByteReader &in) override;

  private:
    struct CacheEntry
    {
        u16 tag = 0;
        u8 counter = 0; // 2-bit
        bool valid = false;
    };

    u64 cacheIndexOf(Addr pc) const;
    u16 tagOf(Addr pc) const;

    std::vector<CacheEntry> takenCache;    // consulted on T bias
    std::vector<CacheEntry> notTakenCache; // consulted on NT bias
    SatCounterArray choiceTable;
    GlobalHistory history;
    unsigned cacheIndexBits;
    unsigned historyBits;
    unsigned choiceIndexBits;
    unsigned tagBits;
};

} // namespace bpred

