#include "predictors/unaliased.hh"

#include <algorithm>
#include <vector>

#include "predictors/info_vector.hh"
#include "support/logging.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

UnaliasedPredictor::UnaliasedPredictor(unsigned history_bits,
                                       unsigned counter_bits)
    : historyBits(checkedHistoryBits("unaliased", history_bits,
                                     maxKeyHistoryBits)),
      counterBits(counter_bits)
{
}

u64
UnaliasedPredictor::keyOf(Addr pc) const
{
    return packInfoVector(pc, history.raw(), historyBits);
}

bool
UnaliasedPredictor::predict(Addr pc)
{
    const SatCounter *counter = counters.find(keyOf(pc));
    lastWasCold = counter == nullptr;
    // Cold entries have no information; predict taken (the static
    // fallback), but the miss will not be charged as a misprediction.
    lastPrediction = lastWasCold ? true : counter->predictTaken();
    lastPredictionValid = true;
    return lastPrediction;
}

void
UnaliasedPredictor::update(Addr pc, bool taken)
{
    const u64 key = keyOf(pc);
    if (!lastPredictionValid) {
        // update() without a paired predict(): recompute.
        const SatCounter *counter = counters.find(key);
        lastWasCold = counter == nullptr;
        lastPrediction = lastWasCold ? true : counter->predictTaken();
    }
    lastPredictionValid = false;

    ++dynamicCount;
    staticBranches.at(pc);

    SatCounter &counter = counters.at(key);
    if (lastWasCold) {
        ++compulsoryCount;
        counter = SatCounter(counterBits);
        counter.setStrong(taken);
    } else {
        warmMispredicts.sample(lastPrediction != taken);
        counter.update(taken);
    }
    history.shiftIn(taken);
}

void
UnaliasedPredictor::notifyUnconditional(Addr)
{
    history.shiftIn(true);
}

std::string
UnaliasedPredictor::name() const
{
    return "unaliased-h" + std::to_string(historyBits) + "-" +
        std::to_string(counterBits) + "bit";
}

u64
UnaliasedPredictor::storageBits() const
{
    return counters.size() * counterBits;
}

void
UnaliasedPredictor::reset()
{
    counters.clear();
    staticBranches.clear();
    history.reset();
    warmMispredicts.reset();
    dynamicCount = 0;
    compulsoryCount = 0;
    lastPredictionValid = false;
}

void
UnaliasedPredictor::saveState(ByteWriter &out) const
{
    std::vector<std::pair<u64, u8>> sorted_counters;
    // bp_lint: allow(reserve-untrusted): sized by this predictor's
    // own in-memory table, not by any decoded field.
    sorted_counters.reserve(counters.size());
    counters.forEach([&](u64 key, const SatCounter &counter) {
        sorted_counters.emplace_back(key, counter.value());
    });
    std::sort(sorted_counters.begin(), sorted_counters.end());
    out.putU64(sorted_counters.size());
    for (const auto &[key, value] : sorted_counters) {
        out.putU64(key);
        out.putU8(value);
    }

    std::vector<Addr> sorted_branches;
    // bp_lint: allow(reserve-untrusted): as above, an in-memory size.
    sorted_branches.reserve(staticBranches.size());
    staticBranches.forEach(
        [&](Addr pc, NoValue) { sorted_branches.push_back(pc); });
    std::sort(sorted_branches.begin(), sorted_branches.end());
    out.putU64(sorted_branches.size());
    for (const Addr pc : sorted_branches) {
        out.putU64(pc);
    }

    out.putU64(warmMispredicts.events());
    out.putU64(warmMispredicts.total());
    out.putU64(dynamicCount);
    out.putU64(compulsoryCount);
    out.putU64(history.raw());
}

void
UnaliasedPredictor::loadState(ByteReader &in)
{
    const u64 counter_count = in.getU64();
    // No reserve: counter_count is untrusted, so the table grows
    // only as entries actually arrive (truncation stops the loop).
    FlatTable<SatCounter> restored_counters;
    for (u64 i = 0; i < counter_count; ++i) {
        const u64 key = in.getU64();
        const u8 value = in.getU8();
        if (value > mask(counterBits)) {
            fatal("unaliased snapshot: counter value exceeds " +
                  std::to_string(counterBits) + " bits");
        }
        auto [counter, inserted] = restored_counters.tryEmplace(key);
        if (!inserted) {
            fatal("unaliased snapshot: duplicate counter key");
        }
        counter = SatCounter(counterBits, value);
    }

    const u64 branch_count = in.getU64();
    FlatTable<NoValue> restored_branches;
    for (u64 i = 0; i < branch_count; ++i) {
        if (!restored_branches.tryEmplace(in.getU64()).second) {
            fatal("unaliased snapshot: duplicate branch address");
        }
    }

    const u64 warm_events = in.getU64();
    const u64 warm_total = in.getU64();
    if (warm_events > warm_total) {
        fatal("unaliased snapshot: inconsistent misprediction "
              "tallies");
    }
    const u64 dynamic_count = in.getU64();
    const u64 compulsory_count = in.getU64();
    const u64 history_raw = in.getU64();

    counters = std::move(restored_counters);
    staticBranches = std::move(restored_branches);
    warmMispredicts.restore(warm_events, warm_total);
    dynamicCount = dynamic_count;
    compulsoryCount = compulsory_count;
    history.set(history_raw);
    // The predict()/update() latch does not survive a checkpoint
    // boundary; update() recomputes when unpaired.
    lastPredictionValid = false;
}

double
UnaliasedPredictor::substreamRatio() const
{
    return staticBranches.empty()
        ? 0.0
        : static_cast<double>(counters.size()) /
            static_cast<double>(staticBranches.size());
}

double
UnaliasedPredictor::compulsoryAliasingRatio() const
{
    return dynamicCount == 0
        ? 0.0
        : static_cast<double>(compulsoryCount) /
            static_cast<double>(dynamicCount);
}

} // namespace bpred
