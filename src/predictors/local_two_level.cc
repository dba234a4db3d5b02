#include "predictors/local_two_level.hh"

#include "predictors/info_vector.hh"
#include "support/logging.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

namespace
{

/** A local history length, checked: histories are held in a u16. */
unsigned
checkedLocalHistoryBits(unsigned bits)
{
    if (bits < 1 || bits > 16) {
        fatal("pag: local history length " + std::to_string(bits) +
              " outside 1..16");
    }
    return bits;
}

} // namespace

LocalTwoLevelPredictor::LocalTwoLevelPredictor(unsigned bht_index_bits,
                                               unsigned local_history_bits,
                                               unsigned counter_bits)
    : historyTable(u64(1) << checkedIndexBits("pag", bht_index_bits), 0),
      patternTable(u64(1) << checkedLocalHistoryBits(local_history_bits),
                   checkedCounterBits("pag", counter_bits)),
      bhtIndexBits(bht_index_bits),
      localHistoryBits(local_history_bits)
{
}

u64
LocalTwoLevelPredictor::bhtIndexOf(Addr pc) const
{
    return addressIndex(pc, bhtIndexBits);
}

bool
LocalTwoLevelPredictor::predict(Addr pc)
{
    const u16 local_history = historyTable[bhtIndexOf(pc)];
    return patternTable.predictTaken(local_history);
}

void
LocalTwoLevelPredictor::update(Addr pc, bool taken)
{
    u16 &local_history = historyTable[bhtIndexOf(pc)];
    patternTable.update(local_history, taken);
    local_history = static_cast<u16>(
        ((local_history << 1) | (taken ? 1 : 0)) &
        mask(localHistoryBits));
}

std::string
LocalTwoLevelPredictor::name() const
{
    return "pag-" + formatEntries(historyTable.size()) + "x" +
        std::to_string(localHistoryBits);
}

u64
LocalTwoLevelPredictor::storageBits() const
{
    return historyTable.size() * localHistoryBits +
        patternTable.storageBits();
}

void
LocalTwoLevelPredictor::reset()
{
    std::fill(historyTable.begin(), historyTable.end(), 0);
    patternTable.reset();
}

void
LocalTwoLevelPredictor::saveState(ByteWriter &out) const
{
    out.putU64(historyTable.size());
    for (const u16 entry : historyTable) {
        out.putU16(entry);
    }
    patternTable.saveState(out);
}

void
LocalTwoLevelPredictor::loadState(ByteReader &in)
{
    const u64 count = in.getU64();
    if (count != historyTable.size()) {
        fatal("pag snapshot: history table size mismatch (stored " +
              std::to_string(count) + ", predictor has " +
              std::to_string(historyTable.size()) + ")");
    }
    std::vector<u16> restored(historyTable.size());
    for (u16 &entry : restored) {
        entry = in.getU16();
        if (entry > mask(localHistoryBits)) {
            fatal("pag snapshot: local history exceeds " +
                  std::to_string(localHistoryBits) + " bits");
        }
    }
    patternTable.loadState(in);
    historyTable = std::move(restored);
}

} // namespace bpred
