#include "predictors/yags.hh"

#include "predictors/info_vector.hh"
#include "support/logging.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

namespace
{

/** @p bits, checked against the u16 each cache entry stores its tag in. */
unsigned
checkedTagBits(unsigned bits)
{
    if (bits > 16) {
        fatal("yags: tag width " + std::to_string(bits) +
              " over 16 (tags are stored in u16)");
    }
    return bits;
}

} // namespace

YagsPredictor::YagsPredictor(unsigned cache_index_bits,
                             unsigned history_bits,
                             unsigned choice_index_bits,
                             unsigned tag_bits)
    : takenCache(u64(1) << checkedIndexBits("yags", cache_index_bits)),
      notTakenCache(u64(1) << cache_index_bits),
      choiceTable(u64(1) << checkedIndexBits("yags", choice_index_bits),
                  2, 2 /* weakly taken */),
      cacheIndexBits(cache_index_bits),
      historyBits(checkedHistoryBits("yags", history_bits)),
      choiceIndexBits(choice_index_bits),
      tagBits(checkedTagBits(tag_bits))
{
}

u64
YagsPredictor::cacheIndexOf(Addr pc) const
{
    return gshareIndex(pc, history.raw(), historyBits,
                       cacheIndexBits);
}

u16
YagsPredictor::tagOf(Addr pc) const
{
    return static_cast<u16>((pc >> 2) & mask(tagBits));
}

bool
YagsPredictor::predict(Addr pc)
{
    const bool bias =
        choiceTable.predictTaken(addressIndex(pc, choiceIndexBits));
    // A taken bias consults the "not-taken cache" (the exceptions
    // to taken), and vice versa.
    const auto &cache = bias ? notTakenCache : takenCache;
    const CacheEntry &entry = cache[cacheIndexOf(pc)];
    if (entry.valid && entry.tag == tagOf(pc)) {
        return entry.counter >= counterThreshold(2);
    }
    return bias;
}

void
YagsPredictor::update(Addr pc, bool taken)
{
    const u64 choice_index = addressIndex(pc, choiceIndexBits);
    const bool bias = choiceTable.predictTaken(choice_index);
    auto &cache = bias ? notTakenCache : takenCache;
    CacheEntry &entry = cache[cacheIndexOf(pc)];
    const bool tag_hit = entry.valid && entry.tag == tagOf(pc);

    if (tag_hit) {
        // Train the exception entry.
        entry.counter = counterStep(entry.counter, taken, counterMax(2));
    } else if (taken != bias) {
        // A new exception: allocate (replacing whatever was there).
        entry.valid = true;
        entry.tag = tagOf(pc);
        entry.counter = taken ? 2 : 1; // weak toward the outcome
    }

    // Choice table trains like bi-mode: skip the update when the
    // bias was wrong but the exception cache covered it.
    const bool covered =
        tag_hit && (entry.counter >= counterThreshold(2)) == taken;
    if (!(bias != taken && covered)) {
        choiceTable.update(choice_index, taken);
    }
    history.shiftIn(taken);
}

void
YagsPredictor::notifyUnconditional(Addr)
{
    history.shiftIn(true);
}

std::string
YagsPredictor::name() const
{
    return "yags-2x" + formatEntries(takenCache.size()) + "+" +
        formatEntries(choiceTable.size()) + "-h" +
        std::to_string(historyBits);
}

u64
YagsPredictor::storageBits() const
{
    // Each cache entry: 2-bit counter + tag + valid bit.
    const u64 entry_bits = 2 + tagBits + 1;
    return (takenCache.size() + notTakenCache.size()) * entry_bits +
        choiceTable.storageBits();
}

void
YagsPredictor::reset()
{
    std::fill(takenCache.begin(), takenCache.end(), CacheEntry{});
    std::fill(notTakenCache.begin(), notTakenCache.end(),
              CacheEntry{});
    choiceTable.reset(2);
    history.reset();
}

void
YagsPredictor::saveState(ByteWriter &out) const
{
    for (const auto *cache : {&takenCache, &notTakenCache}) {
        out.putU64(cache->size());
        for (const CacheEntry &entry : *cache) {
            out.putU16(entry.tag);
            out.putU8(entry.counter);
            out.putU8(entry.valid ? 1 : 0);
        }
    }
    choiceTable.saveState(out);
    out.putU64(history.raw());
}

void
YagsPredictor::loadState(ByteReader &in)
{
    for (auto *cache : {&takenCache, &notTakenCache}) {
        const u64 count = in.getU64();
        if (count != cache->size()) {
            fatal("yags snapshot: cache size mismatch (stored " +
                  std::to_string(count) + ", predictor has " +
                  std::to_string(cache->size()) + ")");
        }
        std::vector<CacheEntry> restored(cache->size());
        for (CacheEntry &entry : restored) {
            entry.tag = in.getU16();
            entry.counter = in.getU8();
            const u8 valid = in.getU8();
            if (entry.tag > mask(tagBits) || entry.counter > counterMax(2) ||
                valid > 1) {
                fatal("yags snapshot: invalid cache entry");
            }
            entry.valid = valid != 0;
        }
        *cache = std::move(restored);
    }
    choiceTable.loadState(in);
    history.set(in.getU64());
}

} // namespace bpred
