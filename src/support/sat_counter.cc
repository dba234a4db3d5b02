#include "support/sat_counter.hh"

#include <algorithm>
#include <cstring>

#include "support/logging.hh"
#include "support/sat_counter_simd.hh"
#include "support/serialize.hh"

namespace bpred
{

namespace
{

/** Bytes of a bank run's header: u64 entry count + u8 width. */
constexpr std::size_t runHeaderBytes = 9;

/**
 * True when every counter of @p run is at most @p max (a width mask
 * 2^w - 1): the bytes are OR-ed a word at a time and tested once, so
 * a run costs one branch however long it is.
 */
bool
countersFit(const u8 *run, u64 size, u8 max)
{
    const u64 excess = ~u64(0) / 0xff * static_cast<u8>(~max);
    u64 seen = 0;
    u64 i = 0;
    for (; i + 8 <= size; i += 8) {
        u64 word;
        std::memcpy(&word, run + i, sizeof(word));
        seen |= word;
    }
    for (; i < size; ++i) {
        seen |= run[i];
    }
    return (seen & excess) == 0;
}

} // namespace

SatCounterArray::SatCounterArray(u64 entries_per_bank, unsigned width,
                                 u8 initial, unsigned num_banks)
    : values(u64(num_banks) * entries_per_bank, initial),
      entriesPerBank_(entries_per_bank),
      numBanks_(num_banks),
      width_(static_cast<u8>(width)),
      maxCounterValue(counterMax(width)),
      thresholdValue(counterThreshold(width))
{
    BP_CHECK(num_banks >= 1, "counter table needs at least one bank");
    BP_CHECK(width >= 1 && width <= 8,
             "counter width outside 1..8");
    BP_CHECK(initial <= maxCounterValue,
             "initial counter value exceeds its width");
}

void
SatCounterArray::reset(u8 initial)
{
    BP_CHECK(initial <= maxCounterValue,
             "reset counter value exceeds its width");
    std::fill(values.begin(), values.end(), initial);
}

void
SatCounterArray::saveState(ByteWriter &out) const
{
    // One run per bank: header, then the bank's counters as a flat
    // run of bytes, filled in once all are laid out (no later write
    // moves the buffer).
    u8 *last = nullptr;
    for (unsigned bank = 0; bank < numBanks_; ++bank) {
        out.putU64(entriesPerBank_);
        out.putU8(width_);
        last = out.grow(entriesPerBank_);
    }
    const std::size_t stride = runHeaderBytes + entriesPerBank_;
    gatherBanks(resolveSimdMode(SimdMode::Auto), values.data(),
                numBanks_, entriesPerBank_,
                last - (numBanks_ - 1) * stride, stride);
}

void
SatCounterArray::loadState(ByteReader &in)
{
    // Validate every bank's run in place, then copy them in at once.
    const u8 *first = nullptr;
    for (unsigned bank = 0; bank < numBanks_; ++bank) {
        const u64 stored_size = in.getU64();
        const u8 stored_width = in.getU8();
        if (stored_size != entriesPerBank_ || stored_width != width_) {
            fatal("sat counter array: snapshot geometry mismatch");
        }
        const u8 *run = in.take(entriesPerBank_);
        if (!countersFit(run, entriesPerBank_, maxCounterValue)) {
            fatal("sat counter array: snapshot counter out of range");
        }
        if (bank == 0) {
            first = run;
        }
    }
    // The runs sit back to back in the span, one header apart.
    scatterBanks(resolveSimdMode(SimdMode::Auto), first,
                 runHeaderBytes + entriesPerBank_, numBanks_,
                 entriesPerBank_, values.data());
}

} // namespace bpred
