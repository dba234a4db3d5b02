/**
 * @file
 * Unit tests for saturating counters and their snapshot codec.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/logging.hh"
#include "support/rng.hh"
#include "support/sat_counter.hh"
#include "support/serialize.hh"

namespace bpred
{
namespace
{

TEST(SatCounter, OneBitActsAsLastOutcome)
{
    SatCounter counter(1);
    EXPECT_FALSE(counter.predictTaken());
    counter.update(true);
    EXPECT_TRUE(counter.predictTaken());
    counter.update(false);
    EXPECT_FALSE(counter.predictTaken());
}

TEST(SatCounter, TwoBitHysteresis)
{
    SatCounter counter(2);
    counter.setStrong(true); // 3
    EXPECT_TRUE(counter.predictTaken());
    counter.update(false); // 2: still predicts taken
    EXPECT_TRUE(counter.predictTaken());
    counter.update(false); // 1: now not taken
    EXPECT_FALSE(counter.predictTaken());
}

TEST(SatCounter, SaturatesHigh)
{
    SatCounter counter(2);
    for (int i = 0; i < 10; ++i) {
        counter.update(true);
    }
    EXPECT_EQ(counter.value(), 3);
    EXPECT_TRUE(counter.isStrong());
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter counter(2, 3);
    for (int i = 0; i < 10; ++i) {
        counter.update(false);
    }
    EXPECT_EQ(counter.value(), 0);
    EXPECT_TRUE(counter.isStrong());
}

TEST(SatCounter, ThresholdMidpoint)
{
    SatCounter two(2);
    EXPECT_EQ(two.threshold(), 2);
    SatCounter three(3);
    EXPECT_EQ(three.threshold(), 4);
    EXPECT_EQ(three.maxValue(), 7);
}

TEST(SatCounter, SetWeak)
{
    SatCounter counter(2);
    counter.setWeak(true);
    EXPECT_TRUE(counter.predictTaken());
    EXPECT_FALSE(counter.isStrong());
    counter.setWeak(false);
    EXPECT_FALSE(counter.predictTaken());
    EXPECT_FALSE(counter.isStrong());
}

TEST(SatCounter, SetStrong)
{
    SatCounter counter(2);
    counter.setStrong(true);
    EXPECT_EQ(counter.value(), 3);
    counter.setStrong(false);
    EXPECT_EQ(counter.value(), 0);
}

/**
 * Property: for every width, a counter saturated toward a
 * direction survives exactly maxValue/2 opposing updates before
 * flipping its prediction.
 */
class SatCounterWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SatCounterWidth, HysteresisDepth)
{
    const unsigned width = GetParam();
    SatCounter counter(width);
    counter.setStrong(true);
    unsigned flips_needed = 0;
    while (counter.predictTaken()) {
        counter.update(false);
        ++flips_needed;
    }
    // From max (2^w - 1) down to threshold-1 (2^(w-1) - 1):
    // exactly 2^(w-1) updates.
    EXPECT_EQ(flips_needed, 1u << (width - 1));
}

TEST_P(SatCounterWidth, NeverLeavesRange)
{
    const unsigned width = GetParam();
    SatCounter counter(width);
    u64 pattern = 0xa5a5'5a5a'dead'beefULL;
    for (int i = 0; i < 64; ++i) {
        counter.update((pattern >> i) & 1);
        EXPECT_LE(counter.value(), counter.maxValue());
    }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, SatCounterWidth,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 8u));

TEST(SatCounterArray, InitialState)
{
    SatCounterArray table(16, 2);
    EXPECT_EQ(table.size(), 16u);
    EXPECT_EQ(table.width(), 2u);
    EXPECT_EQ(table.storageBits(), 32u);
    for (u64 i = 0; i < table.size(); ++i) {
        EXPECT_FALSE(table.predictTaken(i));
        EXPECT_EQ(table.value(i), 0);
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

TEST(SatCounterArray, MatchesScalarCounter)
{
    SatCounterArray table(1, 2);
    SatCounter scalar(2);
    u64 pattern = 0x1234'5678'9abc'def0ULL;
    for (int i = 0; i < 64; ++i) {
        const bool taken = (pattern >> i) & 1;
        table.update(0, taken);
        scalar.update(taken);
        ASSERT_EQ(table.value(0), scalar.value());
        ASSERT_EQ(table.predictTaken(0), scalar.predictTaken());
    }
}

TEST(SatCounterArray, Reset)
{
    SatCounterArray table(4, 2);
    table.update(0, true);
    table.update(1, true);
    table.reset(3);
    for (u64 i = 0; i < 4; ++i) {
        EXPECT_EQ(table.value(i), 3);
    }
    table.reset();
    for (u64 i = 0; i < 4; ++i) {
        EXPECT_EQ(table.value(i), 0);
    }
}

TEST(SatCounterArray, InitialValueHonoured)
{
    SatCounterArray table(4, 2, 2);
    for (u64 i = 0; i < 4; ++i) {
        EXPECT_TRUE(table.predictTaken(i));
    }
}

TEST(SatCounterArray, LoadRejectsOutOfRangeCountersAnywhere)
{
    // The range check ORs whole words and then the tail bytes: a bad
    // counter must be caught in either, and must not land.
    for (const u64 entries : {1u, 7u, 8u, 19u}) {
        SatCounterArray source(entries, 2, 1);
        std::string good;
        ByteWriter out(good);
        source.saveState(out);
        for (u64 index = 0; index < entries; ++index) {
            std::string bad = good;
            bad[9 + index] = 4;
            SatCounterArray target(entries, 2);
            ByteReader in(bad);
            EXPECT_THROW(target.loadState(in), FatalError);
            EXPECT_EQ(target.value(index), 0) << entries << "/" << index;
        }
    }
}

/** The bytes of one standalone SatCounterArray per bank of @p group. */
std::string
perBankArrayBytes(const SatCounterBankGroup &group)
{
    std::string bytes;
    ByteWriter out(bytes);
    for (unsigned bank = 0; bank < group.numBanks(); ++bank) {
        SatCounterArray array(group.entriesPerBank(), group.width());
        for (u64 index = 0; index < group.entriesPerBank(); ++index) {
            array.set(index, group.value(bank, index));
        }
        array.saveState(out);
    }
    return bytes;
}

std::string
groupBytes(const SatCounterBankGroup &group, SimdMode mode)
{
    std::string bytes;
    ByteWriter out(bytes);
    group.saveState(out, mode);
    return bytes;
}

TEST(SatCounterBankGroup, TransposeKernelsMatchScalarAndArrayFraming)
{
    // Scalar and AVX2 transposes against each other and against the
    // pre-bank-group framing, over bank counts with and without a
    // vector kernel and entry counts that end in the vector body
    // (16 after the 32-entry steps, 1024) or in the scalar tail.
    for (const unsigned banks : {1u, 2u, 3u, 5u}) {
        for (const BankLayout layout :
             {BankLayout::Planar, BankLayout::Interleaved}) {
            for (const unsigned width : {1u, 2u, 3u, 8u}) {
                for (const u64 entries : {1u, 7u, 16u, 1000u, 1024u}) {
                    SCOPED_TRACE(std::to_string(banks) + " banks, " +
                                 (layout == BankLayout::Planar
                                      ? "planar"
                                      : "interleaved") +
                                 ", width " + std::to_string(width) +
                                 ", " + std::to_string(entries) +
                                 " entries");
                    SatCounterBankGroup group(banks, entries, width,
                                              layout);
                    Rng rng(banks * 7919 + width * 131 + entries);
                    const u64 values = mask(width) + 1;
                    for (unsigned bank = 0; bank < banks; ++bank) {
                        for (u64 index = 0; index < entries; ++index) {
                            group.set(bank, index,
                                      u8(rng.uniformInt(values)));
                        }
                    }
                    const std::string want = perBankArrayBytes(group);
                    ASSERT_EQ(groupBytes(group, SimdMode::Scalar), want);
                    ASSERT_EQ(groupBytes(group, SimdMode::Avx2), want);

                    for (const SimdMode mode :
                         {SimdMode::Scalar, SimdMode::Avx2}) {
                        SatCounterBankGroup restored(banks, entries,
                                                     width, layout);
                        ByteReader in(want);
                        restored.loadState(in, mode);
                        EXPECT_TRUE(in.atEnd());
                        ASSERT_EQ(perBankArrayBytes(restored), want);
                    }

                    if (width == 8) {
                        continue; // every byte is a valid counter
                    }
                    // An out-of-range counter in the last bank, first
                    // in the vector body (index 0), then in the tail.
                    const std::size_t last =
                        (banks - 1) * (9 + entries) + 9;
                    for (const u64 index : {u64(0), entries - 1}) {
                        std::string bad = want;
                        bad[last + index] = char(values);
                        for (const SimdMode mode :
                             {SimdMode::Scalar, SimdMode::Avx2}) {
                            SatCounterBankGroup target(banks, entries,
                                                       width, layout);
                            const std::string before =
                                perBankArrayBytes(target);
                            ByteReader in(bad);
                            EXPECT_THROW(target.loadState(in, mode),
                                         FatalError);
                            EXPECT_EQ(perBankArrayBytes(target), before);
                        }
                    }
                }
            }
        }
    }
}

TEST(SatCounterBankGroup, LoadRejectsGeometryMismatchAndTruncation)
{
    SatCounterBankGroup group(3, 64, 2, BankLayout::Interleaved);
    const std::string good = groupBytes(group, SimdMode::Scalar);

    SatCounterBankGroup wider(3, 64, 3, BankLayout::Interleaved);
    ByteReader width_in(good);
    EXPECT_THROW(wider.loadState(width_in), FatalError);

    SatCounterBankGroup more(5, 64, 2, BankLayout::Interleaved);
    ByteReader banks_in(good);
    EXPECT_THROW(more.loadState(banks_in), FatalError);

    for (const std::size_t size : {std::size_t(0), std::size_t(8),
                                   good.size() / 2, good.size() - 1}) {
        ByteReader in(std::string_view(good).substr(0, size));
        EXPECT_THROW(group.loadState(in), FatalError) << size;
    }
}

} // namespace
} // namespace bpred
