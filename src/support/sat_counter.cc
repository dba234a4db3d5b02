#include "support/sat_counter.hh"

#include <cstring>

#include "support/logging.hh"
#include "support/sat_counter_simd.hh"
#include "support/serialize.hh"

namespace bpred
{

namespace
{

/** Bytes of a SatCounterArray header: u64 entry count + u8 width. */
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

SatCounterArray::SatCounterArray(u64 num_entries, unsigned width,
                                 u8 initial)
    : values(num_entries, initial),
      width_(static_cast<u8>(width)),
      maxCounterValue(static_cast<u8>(mask(width))),
      thresholdValue(static_cast<u8>(u8(1) << (width - 1)))
{
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
    out.putU64(values.size());
    out.putU8(width_);
    out.putBytes(values.data(), values.size());
}

void
SatCounterArray::loadState(ByteReader &in)
{
    const u64 stored_size = in.getU64();
    const u8 stored_width = in.getU8();
    if (stored_size != values.size() || stored_width != width_) {
        fatal("sat counter array: snapshot geometry mismatch");
    }
    const u8 *run = in.take(values.size());
    if (!countersFit(run, values.size(), maxCounterValue)) {
        fatal("sat counter array: snapshot counter out of range");
    }
    std::memcpy(values.data(), run, values.size());
}

SatCounterBankGroup::SatCounterBankGroup(unsigned num_banks,
                                         u64 entries_per_bank,
                                         unsigned width,
                                         BankLayout layout, u8 initial)
    : values(u64(num_banks) * entries_per_bank, initial),
      entriesPerBank_(entries_per_bank),
      numBanks_(num_banks),
      layout_(layout),
      width_(static_cast<u8>(width)),
      maxCounterValue(static_cast<u8>(mask(width))),
      thresholdValue(static_cast<u8>(u8(1) << (width - 1)))
{
    BP_CHECK(num_banks >= 1, "bank group needs at least one bank");
    BP_CHECK(width >= 1 && width <= 8,
             "counter width outside 1..8");
    BP_CHECK(initial <= maxCounterValue,
             "initial counter value exceeds its width");
}

SatCounterArray::View
SatCounterBankGroup::bankView(unsigned bank)
{
    BP_CHECK(bank < numBanks_, "bank view out of range");
    if (layout_ == BankLayout::Planar) {
        return {values.data() + u64(bank) * entriesPerBank_,
                maxCounterValue, thresholdValue, 1};
    }
    return {values.data() + bank, maxCounterValue, thresholdValue,
            numBanks_};
}

void
SatCounterBankGroup::set(unsigned bank, u64 index, u8 new_value)
{
    BP_CHECK(bank < numBanks_ && index < entriesPerBank_,
             "bank counter write out of range");
    BP_CHECK(new_value <= maxCounterValue,
             "counter value exceeds its width");
    values[offsetOf(bank, index)] = new_value;
}

void
SatCounterBankGroup::reset(u8 initial)
{
    BP_CHECK(initial <= maxCounterValue,
             "reset counter value exceeds its width");
    std::fill(values.begin(), values.end(), initial);
}

void
SatCounterBankGroup::saveState(ByteWriter &out, SimdMode mode) const
{
    // One SatCounterArray run per bank: header, then the bank's
    // counters as a flat run of bytes, filled in once all are laid
    // out (no later write moves the buffer).
    u8 *last = nullptr;
    for (unsigned bank = 0; bank < numBanks_; ++bank) {
        out.putU64(entriesPerBank_);
        out.putU8(width_);
        last = out.grow(entriesPerBank_);
    }
    const std::size_t stride = runHeaderBytes + entriesPerBank_;
    u8 *first = last - (numBanks_ - 1) * stride;
    if (layout_ == BankLayout::Planar) {
        for (unsigned bank = 0; bank < numBanks_; ++bank) {
            std::memcpy(first + bank * stride,
                        values.data() + bank * entriesPerBank_,
                        entriesPerBank_);
        }
    } else {
        gatherBanks(resolveSimdMode(mode), values.data(), numBanks_,
                    entriesPerBank_, first, stride);
    }
}

void
SatCounterBankGroup::loadState(ByteReader &in, SimdMode mode)
{
    // Validate every bank's run in place, then copy them in at once.
    const u8 *first = nullptr;
    for (unsigned bank = 0; bank < numBanks_; ++bank) {
        const u64 stored_size = in.getU64();
        const u8 stored_width = in.getU8();
        if (stored_size != entriesPerBank_ || stored_width != width_) {
            fatal("sat counter bank: snapshot geometry mismatch");
        }
        const u8 *run = in.take(entriesPerBank_);
        if (!countersFit(run, entriesPerBank_, maxCounterValue)) {
            fatal("sat counter bank: snapshot counter out of range");
        }
        if (bank == 0) {
            first = run;
        }
    }
    // The runs sit back to back in the span, one header apart.
    const std::size_t stride = runHeaderBytes + entriesPerBank_;
    if (layout_ == BankLayout::Planar) {
        for (unsigned bank = 0; bank < numBanks_; ++bank) {
            std::memcpy(values.data() + bank * entriesPerBank_,
                        first + bank * stride, entriesPerBank_);
        }
    } else {
        scatterBanks(resolveSimdMode(mode), first, stride, numBanks_,
                     entriesPerBank_, values.data());
    }
}

} // namespace bpred
