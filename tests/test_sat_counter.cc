/**
 * @file
 * Unit tests for the saturating-counter rule, the counter table and
 * its snapshot codec.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/logging.hh"
#include "support/rng.hh"
#include "support/sat_counter.hh"
#include "support/sat_counter_simd.hh"
#include "support/serialize.hh"

namespace bpred
{
namespace
{

/** Every counter width the rule admits. */
const std::vector<unsigned> allWidths = {1, 2, 3, 4, 5, 6, 7, 8};

TEST(CounterRule, StepMatchesTextbookForEveryWidthValueAndOutcome)
{
    for (const unsigned width : allWidths) {
        const unsigned max = (1u << width) - 1;
        ASSERT_EQ(counterMax(width), max);
        ASSERT_EQ(counterThreshold(width), 1u << (width - 1));
        for (unsigned value = 0; value <= max; ++value) {
            // Up on taken, down on not-taken, pinned at 0 and max.
            const unsigned up = value == max ? max : value + 1;
            const unsigned down = value == 0 ? 0 : value - 1;
            EXPECT_EQ(counterStep(u8(value), true, u8(max)), up)
                << width << "/" << value;
            EXPECT_EQ(counterStep(u8(value), false, u8(max)), down)
                << width << "/" << value;
            // The delta is the same step.
            for (const bool taken : {false, true}) {
                EXPECT_EQ(int(value) +
                              counterDelta(u8(value), taken, u8(max)),
                          int(taken ? up : down));
            }
        }
    }
}

TEST(CounterRule, OneBitActsAsLastOutcome)
{
    const u8 max = counterMax(1);
    u8 counter = coldCounter;
    EXPECT_LT(counter, counterThreshold(1));
    counter = counterStep(counter, true, max);
    EXPECT_GE(counter, counterThreshold(1));
    counter = counterStep(counter, false, max);
    EXPECT_LT(counter, counterThreshold(1));
}

TEST(CounterRule, ColdIsStronglyNotTaken)
{
    for (const unsigned width : allWidths) {
        // A not-taken step leaves a cold counter where it is.
        EXPECT_EQ(counterStep(coldCounter, false, counterMax(width)),
                  coldCounter);
        EXPECT_LT(coldCounter, counterThreshold(width));
    }
}

/**
 * Property: for every width, a counter saturated toward a
 * direction survives exactly threshold opposing updates before
 * flipping its prediction.
 */
class CounterRuleWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CounterRuleWidth, HysteresisDepth)
{
    const unsigned width = GetParam();
    const u8 max = counterMax(width);
    u8 counter = max;
    unsigned flips_needed = 0;
    while (counter >= counterThreshold(width)) {
        counter = counterStep(counter, false, max);
        ++flips_needed;
    }
    // From max (2^w - 1) down to threshold-1 (2^(w-1) - 1):
    // exactly 2^(w-1) updates.
    EXPECT_EQ(flips_needed, 1u << (width - 1));
}

TEST_P(CounterRuleWidth, NeverLeavesRange)
{
    const unsigned width = GetParam();
    const u8 max = counterMax(width);
    u8 counter = coldCounter;
    const u64 pattern = 0xa5a5'5a5a'dead'beefULL;
    for (int i = 0; i < 64; ++i) {
        counter = counterStep(counter, (pattern >> i) & 1, max);
        EXPECT_LE(counter, max);
    }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, CounterRuleWidth,
                         ::testing::ValuesIn(allWidths));

TEST(SatCounterArray, InitialState)
{
    SatCounterArray table(16, 2);
    EXPECT_EQ(table.size(), 16u);
    EXPECT_EQ(table.numBanks(), 1u);
    EXPECT_EQ(table.entriesPerBank(), 16u);
    EXPECT_EQ(table.width(), 2u);
    EXPECT_EQ(table.storageBits(), 32u);
    EXPECT_EQ(table.view().stride, 1u);
    for (u64 i = 0; i < table.size(); ++i) {
        EXPECT_FALSE(table.predictTaken(i));
        EXPECT_EQ(table.value(i), coldCounter);
    }
}

TEST(SatCounterArray, IndependentEntries)
{
    SatCounterArray table(8, 2);
    table.update(3, true);
    table.update(3, true);
    EXPECT_TRUE(table.predictTaken(3));
    for (u64 i = 0; i < 8; ++i) {
        if (i != 3) {
            EXPECT_FALSE(table.predictTaken(i));
        }
    }
}

TEST(SatCounterArray, TableViewAndRuleAgree)
{
    // The table's update(), a view's update() and the bare rule walk
    // the same values, in every bank of a group.
    SatCounterArray table(4, 3, coldCounter, 3);
    SatCounterArray::View view = table.view(1);
    EXPECT_EQ(view.stride, 3u);
    u8 rule = coldCounter;
    const u64 pattern = 0x1234'5678'9abc'def0ULL;
    for (int i = 0; i < 64; ++i) {
        const bool taken = (pattern >> i) & 1;
        table.update(1, 2, taken);
        view.update(3, taken);
        rule = counterStep(rule, taken, counterMax(3));
        ASSERT_EQ(table.value(1, 2), rule);
        ASSERT_EQ(view.value(3), rule);
        ASSERT_EQ(table.value(1, 3), rule);
        ASSERT_EQ(table.predictTaken(1, 2), rule >= counterThreshold(3));
        ASSERT_EQ(view.predictTaken(3), rule >= counterThreshold(3));
    }
    // Other banks and entries are untouched.
    EXPECT_EQ(table.value(0, 2), coldCounter);
    EXPECT_EQ(table.value(2, 3), coldCounter);
    EXPECT_EQ(table.value(1, 0), coldCounter);
}

TEST(SatCounterArray, Reset)
{
    SatCounterArray table(4, 2, coldCounter, 3);
    table.update(0, 0, true);
    table.update(2, 1, true);
    table.reset(3);
    for (unsigned bank = 0; bank < 3; ++bank) {
        for (u64 i = 0; i < 4; ++i) {
            EXPECT_EQ(table.value(bank, i), 3);
        }
    }
    table.reset();
    for (unsigned bank = 0; bank < 3; ++bank) {
        for (u64 i = 0; i < 4; ++i) {
            EXPECT_EQ(table.value(bank, i), coldCounter);
        }
    }
}

TEST(SatCounterArray, InitialValueHonoured)
{
    SatCounterArray table(4, 2, 2);
    for (u64 i = 0; i < 4; ++i) {
        EXPECT_TRUE(table.predictTaken(i));
    }
}

/**
 * The snapshot framing, built by hand: per bank, the entry count as
 * a little-endian u64, the width as a u8, then one byte per counter.
 */
std::string
framedRuns(const std::vector<std::vector<u8>> &banks, unsigned width)
{
    std::string bytes;
    for (const std::vector<u8> &bank : banks) {
        for (unsigned shift = 0; shift < 64; shift += 8) {
            bytes += char((u64(bank.size()) >> shift) & 0xff);
        }
        bytes += char(width);
        bytes.append(bank.begin(), bank.end());
    }
    return bytes;
}

std::string
snapshotOf(const SatCounterArray &table)
{
    std::string bytes;
    ByteWriter out(bytes);
    table.saveState(out);
    return bytes;
}

TEST(SatCounterArray, FlatSnapshotIsOneHandFramedRun)
{
    SatCounterArray table(5, 3);
    const std::vector<u8> values = {0, 7, 3, 4, 1};
    for (u64 i = 0; i < values.size(); ++i) {
        table.set(i, values[i]);
    }
    const std::string want = framedRuns({values}, 3);
    ASSERT_EQ(want.size(), 8 + 1 + values.size());
    EXPECT_EQ(snapshotOf(table), want);

    SatCounterArray restored(5, 3);
    ByteReader in(want);
    restored.loadState(in);
    EXPECT_TRUE(in.atEnd());
    for (u64 i = 0; i < values.size(); ++i) {
        EXPECT_EQ(restored.value(i), values[i]);
    }
}

TEST(SatCounterArray, BankedSnapshotIsOneHandFramedRunPerBank)
{
    // Bank counts with and without a vector transpose, and entry
    // counts that end in the vector body (16 after the 32-entry
    // steps, 1024) or in the scalar tail.
    for (const unsigned banks : {1u, 2u, 3u, 5u}) {
        for (const unsigned width : {1u, 2u, 3u, 8u}) {
            for (const u64 entries : {1u, 7u, 16u, 1000u, 1024u}) {
                SCOPED_TRACE(std::to_string(banks) + " banks, width " +
                             std::to_string(width) + ", " +
                             std::to_string(entries) + " entries");
                SatCounterArray table(entries, width, coldCounter, banks);
                Rng rng(banks * 7919 + width * 131 + entries);
                const u64 values = u64(counterMax(width)) + 1;
                std::vector<std::vector<u8>> counters(
                    banks, std::vector<u8>(entries));
                for (unsigned bank = 0; bank < banks; ++bank) {
                    for (u64 index = 0; index < entries; ++index) {
                        counters[bank][index] =
                            u8(rng.uniformInt(values));
                        table.set(bank, index, counters[bank][index]);
                    }
                }
                const std::string want = framedRuns(counters, width);
                ASSERT_EQ(snapshotOf(table), want);

                SatCounterArray restored(entries, width, coldCounter,
                                         banks);
                ByteReader in(want);
                restored.loadState(in);
                EXPECT_TRUE(in.atEnd());
                ASSERT_EQ(snapshotOf(restored), want);
            }
        }
    }
}

TEST(SatCounterArray, LoadRejectsOutOfRangeCountersAnywhere)
{
    // The range check ORs whole 8-byte words and then the tail bytes
    // against a mask built from the width: a counter one past the
    // width's max (or any wider byte) in any bank, in the word body
    // or the tail, must be caught, and no counter of any bank may
    // change. Short tables try every slot; long ones the first and
    // last of the body, the word boundaries around it and the tail.
    for (const unsigned width : {1u, 2u, 3u}) {
        const unsigned bad_value = counterMax(width) + 1u;
        for (const unsigned banks : {1u, 2u, 3u, 5u}) {
            for (const u64 entries :
                 {1u, 7u, 8u, 16u, 19u, 1000u, 1024u}) {
                std::vector<u64> slots;
                if (entries <= 32) {
                    for (u64 index = 0; index < entries; ++index) {
                        slots.push_back(index);
                    }
                } else {
                    slots = {0, 7, 8, entries / 2, entries - 9,
                             entries - 8, entries - 1};
                }
                SatCounterArray source(entries, width, 1, banks);
                const std::string good = snapshotOf(source);
                SatCounterArray target(entries, width, coldCounter,
                                       banks);
                const std::string before = snapshotOf(target);
                for (unsigned bank = 0; bank < banks; ++bank) {
                    for (const u64 index : slots) {
                        for (const unsigned value : {bad_value, 255u}) {
                            SCOPED_TRACE(
                                "width " + std::to_string(width) + ", " +
                                std::to_string(banks) + "x" +
                                std::to_string(entries) + " bank " +
                                std::to_string(bank) + " index " +
                                std::to_string(index) + " value " +
                                std::to_string(value));
                            std::string bad = good;
                            bad[bank * (9 + entries) + 9 + index] =
                                char(value);
                            ByteReader in(bad);
                            EXPECT_THROW(target.loadState(in),
                                         FatalError);
                            ASSERT_EQ(snapshotOf(target), before);
                        }
                    }
                }
                // The unmodified run loads, so the rejections above
                // came from the planted counter.
                ByteReader in(good);
                target.loadState(in);
                EXPECT_EQ(snapshotOf(target), good);
            }
        }
    }
}

TEST(SatCounterArray, LoadRejectsGeometryMismatchAndTruncation)
{
    SatCounterArray table(64, 2, coldCounter, 3);
    const std::string good = snapshotOf(table);

    SatCounterArray wider(64, 3, coldCounter, 3);
    ByteReader width_in(good);
    EXPECT_THROW(wider.loadState(width_in), FatalError);

    SatCounterArray more(64, 2, coldCounter, 5);
    ByteReader banks_in(good);
    EXPECT_THROW(more.loadState(banks_in), FatalError);

    SatCounterArray longer(65, 2, coldCounter, 3);
    ByteReader entries_in(good);
    EXPECT_THROW(longer.loadState(entries_in), FatalError);

    for (const std::size_t size : {std::size_t(0), std::size_t(8),
                                   good.size() / 2, good.size() - 1}) {
        ByteReader in(std::string_view(good).substr(0, size));
        EXPECT_THROW(table.loadState(in), FatalError) << size;
    }
}

TEST(BankTranspose, GatherAndScatterMatchHandTransposeUnderEveryMode)
{
    // gatherBanks() splits interleaved banks into flat runs a stride
    // apart; scatterBanks() is its inverse. The AVX2 kernel (three
    // banks) and the scalar loops must move the same bytes, across
    // the vector body and the tail; the gap between runs is left
    // alone.
    for (const unsigned banks : {1u, 2u, 3u, 5u}) {
        for (const u64 entries : {1u, 7u, 16u, 31u, 32u, 1000u, 1024u}) {
            SCOPED_TRACE(std::to_string(banks) + " banks, " +
                         std::to_string(entries) + " entries");
            const std::size_t stride = entries + 9;
            Rng rng(banks * 104729 + entries);
            std::vector<u8> interleaved(banks * entries);
            for (u8 &value : interleaved) {
                value = u8(rng.uniformInt(256));
            }
            std::vector<u8> want(banks * stride, 0xee);
            for (unsigned bank = 0; bank < banks; ++bank) {
                for (u64 index = 0; index < entries; ++index) {
                    want[bank * stride + index] =
                        interleaved[index * banks + bank];
                }
            }
            for (const SimdMode mode : {SimdMode::Scalar, SimdMode::Avx2}) {
                std::vector<u8> flat(banks * stride, 0xee);
                gatherBanks(mode, interleaved.data(), banks, entries,
                            flat.data(), stride);
                EXPECT_EQ(flat, want) << simdModeName(mode);

                std::vector<u8> back(banks * entries, 0);
                scatterBanks(mode, want.data(), stride, banks, entries,
                             back.data());
                EXPECT_EQ(back, interleaved) << simdModeName(mode);
            }
        }
    }
}

} // namespace
} // namespace bpred
