#include "predictors/agree.hh"

#include <algorithm>

#include "predictors/info_vector.hh"
#include "support/logging.hh"
#include "support/probe.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

namespace
{
constexpr u8 biasUnset = 2;
} // namespace

AgreePredictor::AgreePredictor(unsigned index_bits,
                               unsigned history_bits,
                               unsigned bias_index_bits,
                               unsigned counter_bits)
    : agreeTable(u64(1) << checkedIndexBits("agree", index_bits),
                 counter_bits,
                 // Initialize weakly "agree": cold branches follow
                 // their bias, the design's whole premise.
                 static_cast<u8>(u8(1) << (counter_bits - 1))),
      biasTable(u64(1) << checkedIndexBits("agree", bias_index_bits),
                biasUnset),
      indexBits(index_bits),
      historyBits(checkedHistoryBits("agree", history_bits)),
      biasIndexBits(bias_index_bits)
{
}

bool
AgreePredictor::biasOf(Addr pc) const
{
    const u8 bias = biasTable[addressIndex(pc, biasIndexBits)];
    // Unset bias defaults to taken (static heuristic).
    return bias == biasUnset ? true : bias != 0;
}

bool
AgreePredictor::predict(Addr pc)
{
    const u64 index =
        gshareIndex(pc, history.raw(), historyBits, indexBits);
    const bool agree = agreeTable.predictTaken(index);
    const bool bias = biasOf(pc);
    return agree ? bias : !bias;
}

void
AgreePredictor::update(Addr pc, bool taken)
{
    // Dispatch before any work so the no-sink path keeps nothing
    // live across the probed helper's virtual sink calls (which
    // would force a stack frame on the hot path).
    if (probeSink) [[unlikely]] {
        updateProbed(pc, taken);
        return;
    }
    u8 &bias_entry = biasTable[addressIndex(pc, biasIndexBits)];
    const u64 index =
        gshareIndex(pc, history.raw(), historyBits, indexBits);
    if (bias_entry == biasUnset) {
        // First encounter: the observed outcome becomes the bias.
        bias_entry = taken ? 1 : 0;
    }
    agreeTable.update(index, taken == (bias_entry != 0));
    history.shiftIn(taken);
}

void
AgreePredictor::updateProbed(Addr pc, bool taken)
{
    u8 &bias_entry = biasTable[addressIndex(pc, biasIndexBits)];
    const u64 index =
        gshareIndex(pc, history.raw(), historyBits, indexBits);
    // Resolve with the pre-update bias, as predict() saw it.
    const bool predicted_bias =
        bias_entry == biasUnset ? true : bias_entry != 0;
    const bool agree = agreeTable.predictTaken(index);
    probeSink->onResolved(
        {pc, agree ? predicted_bias : !predicted_bias, taken});
    if (bias_entry == biasUnset) {
        bias_entry = taken ? 1 : 0;
    }
    const bool bias = bias_entry != 0;
    const u8 before = agreeTable.value(index);
    agreeTable.update(index, taken == bias);
    const u8 after = agreeTable.value(index);
    if (before != after) {
        probeSink->onCounterWrite({0, before, after});
    }
    history.shiftIn(taken);
}

void
AgreePredictor::notifyUnconditional(Addr)
{
    history.shiftIn(true);
}

std::string
AgreePredictor::name() const
{
    return "agree-" + formatEntries(agreeTable.size()) + "-h" +
        std::to_string(historyBits);
}

u64
AgreePredictor::storageBits() const
{
    // Counter bits plus one bias bit per bias entry.
    return agreeTable.storageBits() + biasTable.size();
}

void
AgreePredictor::reset()
{
    agreeTable.reset(
        static_cast<u8>(u8(1) << (agreeTable.width() - 1)));
    std::fill(biasTable.begin(), biasTable.end(), biasUnset);
    history.reset();
}

void
AgreePredictor::saveState(ByteWriter &out) const
{
    agreeTable.saveState(out);
    out.putU64(biasTable.size());
    out.putBytes(biasTable.data(), biasTable.size());
    out.putU64(history.raw());
}

void
AgreePredictor::loadState(ByteReader &in)
{
    agreeTable.loadState(in);
    const u64 count = in.getU64();
    if (count != biasTable.size()) {
        fatal("agree snapshot: bias table size mismatch (stored " +
              std::to_string(count) + ", predictor has " +
              std::to_string(biasTable.size()) + ")");
    }
    const u8 *restored = in.take(biasTable.size());
    if (std::any_of(restored, restored + biasTable.size(),
                    [](u8 entry) { return entry > biasUnset; })) {
        fatal("agree snapshot: invalid bias value");
    }
    std::copy(restored, restored + biasTable.size(), biasTable.begin());
    history.set(in.getU64());
}

} // namespace bpred
