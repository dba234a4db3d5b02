/**
 * @file
 * Unit tests for the infinite unaliased predictor (Table 2
 * machinery).
 */

#include <gtest/gtest.h>


#include "predictors/unaliased.hh"
#include "support/logging.hh"
#include "support/serialize.hh"

namespace bpred
{
namespace
{

TEST(Unaliased, FirstEncounterNotCharged)
{
    UnaliasedPredictor predictor(4, 2);
    predictor.predict(0x100);
    predictor.update(0x100, false); // cold: always-taken guess wrong
    // Compulsory reference recorded, but no misprediction charged.
    EXPECT_EQ(predictor.dynamicBranches(), 1u);
    EXPECT_DOUBLE_EQ(predictor.mispredictionRatio(), 0.0);
    EXPECT_DOUBLE_EQ(predictor.compulsoryAliasingRatio(), 1.0);
}

TEST(Unaliased, LearnsPerSubstream)
{
    UnaliasedPredictor predictor(2, 2);
    const Addr pc = 0x100;
    // Build two distinct history contexts for pc by preceding it
    // with different outcomes of a setup branch.
    const Addr setup = 0x200;

    // Pattern: setup T -> pc T ; setup N -> pc N, repeatedly.
    for (int i = 0; i < 50; ++i) {
        const bool phase = i % 2 == 0;
        predictor.predict(setup);
        predictor.update(setup, phase);
        predictor.predict(pc);
        predictor.update(pc, phase);
    }
    // After warm-up no mispredictions should accumulate further.
    const u64 before = predictor.dynamicBranches();
    const double ratio_before = predictor.mispredictionRatio();
    for (int i = 0; i < 50; ++i) {
        const bool phase = i % 2 == 0;
        predictor.predict(setup);
        predictor.update(setup, phase);
        predictor.predict(pc);
        predictor.update(pc, phase);
    }
    EXPECT_EQ(predictor.dynamicBranches(), before + 100);
    EXPECT_LE(predictor.mispredictionRatio(), ratio_before + 1e-12);
}

TEST(Unaliased, SubstreamRatioCountsHistories)
{
    UnaliasedPredictor predictor(2, 2);
    const Addr pc = 0x100;
    // Drive pc under all four 2-bit histories.
    predictor.update(pc, true);  // hist 00 -> new pair
    predictor.update(pc, true);  // hist 01 -> new pair
    predictor.update(pc, true);  // hist 11 -> new pair
    predictor.update(pc, false); // hist 11 (again) -> existing
    predictor.update(pc, true);  // hist 10 -> new pair
    EXPECT_EQ(predictor.numStaticBranches(), 1u);
    EXPECT_EQ(predictor.numSubstreams(), 4u);
    EXPECT_DOUBLE_EQ(predictor.substreamRatio(), 4.0);
}

TEST(Unaliased, ZeroHistoryDegeneratesToPerAddress)
{
    UnaliasedPredictor predictor(0, 2);
    predictor.update(0x100, true);
    predictor.update(0x100, false);
    predictor.update(0x104, true);
    EXPECT_EQ(predictor.numSubstreams(), 2u);
    EXPECT_DOUBLE_EQ(predictor.substreamRatio(), 1.0);
}

TEST(Unaliased, OneBitWorseThanTwoBitOnLoops)
{
    // 9-of-10 loop pattern under a history register: because the
    // history distinguishes iterations, both predictors do well,
    // so use zero history to expose the counter difference.
    UnaliasedPredictor one_bit(0, 1);
    UnaliasedPredictor two_bit(0, 2);
    const Addr pc = 0x40;
    for (int i = 0; i < 1000; ++i) {
        const bool outcome = i % 10 != 9;
        one_bit.predict(pc);
        one_bit.update(pc, outcome);
        two_bit.predict(pc);
        two_bit.update(pc, outcome);
    }
    EXPECT_GT(one_bit.mispredictionRatio(),
              two_bit.mispredictionRatio());
}

TEST(Unaliased, CompulsoryRatioFallsOverTime)
{
    UnaliasedPredictor predictor(4, 2);
    const Addr pc = 0x80;
    for (int i = 0; i < 1000; ++i) {
        predictor.predict(pc);
        predictor.update(pc, true);
    }
    // One address, all-taken history: at most a handful of distinct
    // pairs; compulsory ratio tends to ~pairs/1000.
    EXPECT_LT(predictor.compulsoryAliasingRatio(), 0.02);
}

TEST(Unaliased, StorageGrowsWithPairs)
{
    UnaliasedPredictor predictor(4, 2);
    EXPECT_EQ(predictor.storageBits(), 0u);
    predictor.update(0x100, true);
    predictor.update(0x104, true);
    EXPECT_EQ(predictor.storageBits(),
              predictor.numSubstreams() * 2);
}

TEST(Unaliased, ResetClearsEverything)
{
    UnaliasedPredictor predictor(4, 2);
    predictor.update(0x100, true);
    predictor.reset();
    EXPECT_EQ(predictor.dynamicBranches(), 0u);
    EXPECT_EQ(predictor.numSubstreams(), 0u);
    EXPECT_EQ(predictor.numStaticBranches(), 0u);
    EXPECT_DOUBLE_EQ(predictor.mispredictionRatio(), 0.0);
}

TEST(Unaliased, NameEncodesConfig)
{
    UnaliasedPredictor predictor(12, 1);
    EXPECT_EQ(predictor.name(), "unaliased-h12-1bit");
}

/** Overwrite the little-endian u64 at @p offset of @p bytes. */
void
pokeU64(std::string &bytes, std::size_t offset, u64 value)
{
    for (unsigned i = 0; i < 8; ++i) {
        bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
    }
}

TEST(Unaliased, InflatedSnapshotCountsFailAsCorruptInput)
{
    // A snapshot's saved counts are untrusted: an inflated count
    // must be reported as a corrupt snapshot (FatalError), never
    // turned into a huge allocation.
    UnaliasedPredictor source(4, 2);
    for (int i = 0; i < 40; ++i) {
        const Addr pc = 0x100 + 4 * (i % 5);
        source.predict(pc);
        source.update(pc, i % 3 != 0);
    }
    std::string good;
    ByteWriter out(good);
    source.saveState(out);
    const u64 counters = source.numSubstreams();
    ASSERT_GT(counters, 0u);

    const auto load = [](const std::string &bytes) {
        UnaliasedPredictor target(4, 2);
        ByteReader in(bytes);
        target.loadState(in);
    };
    EXPECT_NO_THROW(load(good));

    // Layout: counter count, then (u64 key, u8 value) per counter,
    // then the static-branch count.
    std::string inflated_counters = good;
    pokeU64(inflated_counters, 0, u64(1) << 58);
    EXPECT_THROW(load(inflated_counters), FatalError);

    std::string inflated_branches = good;
    pokeU64(inflated_branches, 8 + 9 * counters, u64(1) << 58);
    EXPECT_THROW(load(inflated_branches), FatalError);
}

} // namespace
} // namespace bpred
