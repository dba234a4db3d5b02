/**
 * @file
 * Unit tests for the shared-hysteresis bank encoding of the skewed
 * predictor (gskewedsh, egskewsh).
 */

#include <gtest/gtest.h>

#include "core/skewed_predictor.hh"
#include "sim/driver.hh"
#include "support/logging.hh"
#include "workloads/presets.hh"

namespace bpred
{
namespace
{

SkewedPredictor::Config
shConfig(unsigned bank_bits = 6, unsigned history = 4)
{
    SkewedPredictor::Config config;
    config.numBanks = 3;
    config.bankIndexBits = bank_bits;
    config.historyBits = history;
    config.counterBits = 2;
    config.updatePolicy = UpdatePolicy::Partial;
    config.storage = BankStorage::SharedHysteresis;
    return config;
}

/** @p config with full 2-bit counter banks. */
SkewedPredictor::Config
fullConfig(SkewedPredictor::Config config)
{
    config.storage = BankStorage::Counters;
    return config;
}

TEST(SharedHysteresis, StorageIsOnePointFiveBitsPerEntry)
{
    SkewedPredictor predictor(shConfig(10));
    // 3 banks x (1024 prediction bits + 512 hysteresis bits).
    EXPECT_EQ(predictor.storageBits(), 3u * (1024 + 512));
    // 25% cheaper than the full 2-bit encoding.
    SkewedPredictor full(fullConfig(shConfig(10)));
    EXPECT_EQ(predictor.storageBits() * 4, full.storageBits() * 3);
}

TEST(SharedHysteresis, RejectsNonTwoBitCounters)
{
    SkewedPredictor::Config config = shConfig();
    config.counterBits = 1;
    EXPECT_THROW(SkewedPredictor{config},
                 FatalError);
}

TEST(SharedHysteresis, RejectsEvenBanks)
{
    SkewedPredictor::Config config = shConfig();
    config.numBanks = 4;
    EXPECT_THROW(SkewedPredictor{config},
                 FatalError);
}

TEST(SharedHysteresis, LearnsBiasedBranch)
{
    SkewedPredictor predictor(shConfig());
    const Addr pc = 0x200;
    for (int i = 0; i < 12; ++i) {
        predictor.predict(pc);
        predictor.update(pc, true);
    }
    EXPECT_TRUE(predictor.predict(pc));
}

TEST(SharedHysteresis, LearnsAlternatingBranch)
{
    SkewedPredictor predictor(shConfig());
    const Addr pc = 0x400;
    bool outcome = false;
    int wrong = 0;
    for (int i = 0; i < 400; ++i) {
        outcome = !outcome;
        if (i >= 200) {
            wrong += predictor.predict(pc) != outcome;
        }
        predictor.update(pc, outcome);
    }
    EXPECT_EQ(wrong, 0);
}

TEST(SharedHysteresis, NeighbourSharingOnlyTouchesHysteresis)
{
    // Two (addr, hist) streams that land on neighbouring entries
    // share a hysteresis bit but never a prediction bit; a
    // direction learned strongly by one cannot be *flipped* by a
    // single opposing update from the neighbour.
    SkewedPredictor predictor(shConfig(6, 0));
    const Addr pc = 0x100;
    for (int i = 0; i < 8; ++i) {
        predictor.update(pc, true);
    }
    EXPECT_TRUE(predictor.predict(pc));
}

TEST(SharedHysteresis, CloseToFullEncodingAccuracy)
{
    // On a real workload the 1.5-bit encoding should track the
    // 2-bit encoding within a modest margin at equal geometry.
    const Trace trace = makeIbsTrace("verilog", 0.02);
    SkewedPredictor sh(shConfig(10, 8));
    SkewedPredictor full(fullConfig(shConfig(10, 8)));
    const double sh_rate = simulate(sh, trace).mispredictRatio();
    const double full_rate =
        simulate(full, trace).mispredictRatio();
    EXPECT_LT(sh_rate, full_rate * 1.15 + 0.01);
    EXPECT_GT(sh_rate, full_rate * 0.9 - 0.01);
}

TEST(SharedHysteresis, EnhancedVariantWorks)
{
    SkewedPredictor::Config config = makeEnhancedConfig(6, 4);
    config.storage = BankStorage::SharedHysteresis;
    SkewedPredictor predictor(config);
    EXPECT_EQ(predictor.name(), "e-gskew-sh-3x64-h4-partial");
    for (int i = 0; i < 12; ++i) {
        predictor.update(0x40, true);
    }
    EXPECT_TRUE(predictor.predict(0x40));
}

TEST(SharedHysteresis, NameAndReset)
{
    SkewedPredictor predictor(shConfig(12, 8));
    EXPECT_EQ(predictor.name(), "gskewed-sh-3x4K-h8-partial");
    for (int i = 0; i < 12; ++i) {
        predictor.update(0x40, true);
    }
    predictor.reset();
    EXPECT_FALSE(predictor.predict(0x40));
}

} // namespace
} // namespace bpred
