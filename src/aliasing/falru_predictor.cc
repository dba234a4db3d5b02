#include "aliasing/falru_predictor.hh"

#include "predictors/info_vector.hh"
#include "support/sat_counter.hh"
#include "support/serialize.hh"

namespace bpred
{

FaLruPredictor::FaLruPredictor(u64 capacity, unsigned history_bits,
                               unsigned counter_bits)
    : table(capacity),
      historyBits(
          checkedHistoryBits("falru", history_bits, maxKeyHistoryBits)),
      counterBits(checkedCounterBits("falru", counter_bits))
{
}

u64
FaLruPredictor::keyOf(Addr pc) const
{
    return packInfoVector(pc, history.raw(), historyBits);
}

bool
FaLruPredictor::predict(Addr pc)
{
    const u8 *payload = table.peek(keyOf(pc));
    if (payload == nullptr) {
        return true; // static always-taken fallback
    }
    return *payload >= counterThreshold(counterBits);
}

void
FaLruPredictor::update(Addr pc, bool taken)
{
    // A fresh entry starts strongly toward the outcome.
    const u8 max = counterMax(counterBits);
    u8 *payload = table.access(keyOf(pc), taken ? max : 0);
    if (payload != nullptr) {
        *payload = counterStep(*payload, taken, max);
    }
    history.shiftIn(taken);
}

void
FaLruPredictor::notifyUnconditional(Addr)
{
    history.shiftIn(true);
}

std::string
FaLruPredictor::name() const
{
    return "fa-lru-" + std::to_string(table.capacity()) + "-h" +
        std::to_string(historyBits);
}

u64
FaLruPredictor::storageBits() const
{
    // Identity tag: address bits (conservatively 30) + history bits.
    const u64 tag_bits = 30 + historyBits;
    return table.capacity() * (counterBits + tag_bits);
}

void
FaLruPredictor::reset()
{
    table.reset();
    history.reset();
}

void
FaLruPredictor::saveState(ByteWriter &out) const
{
    table.saveState(out);
    out.putU64(history.raw());
}

void
FaLruPredictor::loadState(ByteReader &in)
{
    table.loadState(in);
    history.set(in.getU64());
}

} // namespace bpred
