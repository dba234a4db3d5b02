/**
 * @file
 * Unit tests for the checked-build invariant layer
 * (support/check.hh).
 *
 * This translation unit force-enables BPRED_CHECKED before any
 * include, so the BP_CHECK macros and strong-type validation are
 * live here regardless of how the tree was configured; violations
 * are observed as death (panic() aborts).
 */

#define BPRED_CHECKED 1

#include <gtest/gtest.h>

#include "aliasing/fa_lru_table.hh"
#include "aliasing/tagged_table.hh"
#include "predictors/block_kernel_simd.hh"
#include "predictors/history.hh"
#include "predictors/info_vector.hh"
#include "support/check.hh"
#include "support/sat_counter.hh"

namespace bpred
{
namespace
{

TEST(BpCheck, PassingConditionIsSilent)
{
    BP_CHECK(1 + 1 == 2, "arithmetic still works");
    BP_CHECK(true, "trivially true");
}

TEST(BpCheckDeathTest, FailingConditionPanics)
{
    EXPECT_DEATH(BP_CHECK(false, "intentional failure"),
                 "BP_CHECK failed");
}

TEST(BpCheckDeathTest, MessageAndConditionAreReported)
{
    const int answer = 43;
    EXPECT_DEATH(BP_CHECK(answer == 42, "wrong answer"),
                 "answer == 42.*wrong answer");
}

TEST(BankIndexTest, InRangeValuePassesThrough)
{
    const BankIndex index(7, 8);
    EXPECT_EQ(index.get(), 7u);
    const u64 raw = index; // implicit conversion
    EXPECT_EQ(raw, 7u);
}

TEST(BankIndexDeathTest, OutOfRangeValuePanics)
{
    EXPECT_DEATH(BankIndex(8, 8), "table index out of range");
    EXPECT_DEATH(BankIndex(1, 0), "table index out of range");
}

TEST(HistWidthTest, ValidWidthPassesThrough)
{
    const HistWidth width(12);
    EXPECT_EQ(width.get(), 12u);
    const unsigned raw = width;
    EXPECT_EQ(raw, 12u);
    EXPECT_EQ(HistWidth(64).get(), 64u); // boundary
}

TEST(HistWidthDeathTest, OversizedWidthPanics)
{
    EXPECT_DEATH(HistWidth(65), "history width exceeds 64 bits");
}

TEST(CheckedHistory, ValueValidatesWidthImplicitly)
{
    GlobalHistory history;
    history.shiftIn(true);
    history.shiftIn(false);
    history.shiftIn(true);
    EXPECT_EQ(history.value(2), 0b01u);
    EXPECT_EQ(history.value(64), history.raw());
    EXPECT_DEATH(history.value(70), "history width exceeds 64 bits");
}

TEST(CheckedSatCounterArray, BoundsViolationsPanic)
{
    SatCounterArray table(16, 2);
    table.update(15, true);
    EXPECT_TRUE(table.value(15) == 1);
    EXPECT_DEATH(table.set(16, 0), "counter write out of range");
    EXPECT_DEATH(table.set(0, 4), "counter value exceeds its width");
    // A banked table checks the bank as well as the entry.
    SatCounterArray banks(16, 2, coldCounter, 3);
    EXPECT_DEATH(banks.set(3, 0, 0), "counter write out of range");
    EXPECT_DEATH(banks.set(0, 16, 0), "counter write out of range");
    EXPECT_DEATH(banks.view(3), "bank view out of range");
    EXPECT_DEATH(banks.view(), "flat view of a banked table");
    // The flat accessors index a 1-bank table only.
    EXPECT_DEATH(banks.set(u64(0), 0), "flat counter write out of range");
#ifndef NDEBUG
    // The per-prediction accessors use BP_DCHECK, which NDEBUG
    // compiles out even in checked builds.
    EXPECT_DEATH(table.update(16, true), "counter write out of range");
    EXPECT_DEATH(table.value(16), "counter read out of range");
    EXPECT_DEATH(banks.update(3, 0, true), "counter write out of range");
    EXPECT_DEATH(banks.value(0, 16), "counter read out of range");
    EXPECT_DEATH(banks.update(u64(0), true),
                 "flat counter write out of range");
    EXPECT_DEATH(banks.value(u64(0)), "flat counter read out of range");
#endif
}

TEST(CheckedIndexFunctions, OutputsStayInRange)
{
    // Every index function returns a BankIndex already validated
    // against its table size; in this TU a violation would panic,
    // so plain calls double as in-range assertions.
    for (Addr pc = 0; pc < 4096; pc += 4) {
        const u64 gshare = gshareIndex(pc, pc * 31, 12, 10);
        EXPECT_LT(gshare, 1u << 10);
        const u64 gselect = gselectIndex(pc, pc * 31, 6, 10);
        EXPECT_LT(gselect, 1u << 10);
        const u64 addr = addressIndex(pc, 8);
        EXPECT_LT(addr, 1u << 8);
    }
}

TEST(PhaseSplitDeathTest, IndexMismatchAborts)
{
    // The checked resolve verifies every precomputed index against
    // the scalar index function. A mismatch is a fill-kernel bug:
    // it must abort, not warn and repair. A single table resolves as
    // the 1-bank group: a flat array's view has stride 1.
    SatCounterArray table(16, 2);
    const u32 b0[2] = {3, 5};
    const u32 *const idx[1] = {b0};
    const u8 taken[2] = {1, 0};
    u8 mask[2] = {};
    ReplayCounters counters;
    u64 writes = 0;
    resolveBankGroup(table.view(), idx, taken, 2, UpdatePolicy::Total,
                     false, counters, writes, mask,
                     [&](unsigned, std::size_t j) { return u64(b0[j]); });
    EXPECT_EQ(counters.conditionals, 2u);
    EXPECT_EQ(u64(mask[0]) + mask[1], counters.mispredicts);
    EXPECT_EQ(writes, 2u);
    EXPECT_EQ(table.value(3), 1u);
    EXPECT_EQ(table.value(5), 0u);
    EXPECT_DEATH(resolveBankGroup(table.view(), idx, taken, 2,
                                  UpdatePolicy::Total, false, counters,
                                  writes, nullptr,
                                  [](unsigned, std::size_t) {
                                      return u64(7);
                                  }),
                 "precomputed index diverged");
    EXPECT_DEATH(noteIndexRepair(), "fill-kernel bug");
}

TEST(PhaseSplitDeathTest, SingleTableLookupIsVerified)
{
    // A 1-bank entry that disagrees with skewedVote() — here a
    // counter at 2 that claims it stays at 2 on a taken outcome
    // instead of rising to 3 — panics like a skewed one.
    const u8 values[1] = {2};
    const auto verify = verifySkewedEntry<1, 2>;
    verify(values, true, skewedEntry<1, 2>(values, true,
                                           UpdatePolicy::Total),
           UpdatePolicy::Total);
    const unsigned corrupted = 1u << skewedEntryWritesShift | 2;
    EXPECT_DEATH(verify(values, true, corrupted, UpdatePolicy::Total),
                 "diverged from skewedVote");
}

TEST(PhaseSplitDeathTest, SkewedResolveVerifiesEveryLookup)
{
    // The checked skewed resolve runs the transition-table span and
    // verifies both its indices and each looked-up entry against
    // skewedVote(). Either mismatch aborts.
    SatCounterArray banks(16, 2, coldCounter, 3);
    const u32 b0[2] = {3, 5};
    const u32 b1[2] = {4, 5};
    const u32 b2[2] = {9, 1};
    const u32 *const idx[3] = {b0, b1, b2};
    const u8 taken[2] = {1, 0};
    u8 mask[2] = {};
    ReplayCounters counters;
    u64 writes = 0;
    const auto exact = [&](unsigned bank, std::size_t j) {
        return u64(idx[bank][j]);
    };
    resolveBankGroup(banks.view(0), idx, taken, 2,
                     UpdatePolicy::Total, false, counters, writes, mask,
                     exact);
    EXPECT_EQ(counters.conditionals, 2u);
    EXPECT_EQ(u64(mask[0]) + mask[1], counters.mispredicts);
    EXPECT_EQ(writes, 6u);
    EXPECT_DEATH(resolveBankGroup(banks.view(0), idx, taken, 2,
                                  UpdatePolicy::Total, false, counters,
                                  writes, nullptr,
                                  [](unsigned, std::size_t) {
                                      return u64(7);
                                  }),
                 "precomputed index diverged");
    const u8 values[3] = {0, 2, 3};
    const auto verify = verifySkewedEntry<3, 2>;
    EXPECT_DEATH(verify(values, true, 0, UpdatePolicy::Partial),
                 "diverged from skewedVote");
}

TEST(CheckedAliasingTables, MisuseFailsLoudly)
{
    // Setting the payload of a key that is not resident used to
    // dereference a missing entry once assert() compiled out.
    FullyAssociativeLruTable fa(2);
    fa.access(1, 0);
    fa.setPayload(1, 3);
    EXPECT_EQ(*fa.peek(1), 3);
    EXPECT_DEATH(fa.setPayload(2, 1), "not resident");

    TaggedDirectMappedTable tagged(4);
    EXPECT_EQ(tagged.probe(15, 7), TaggedDirectMappedTable::Outcome::Cold);
#ifndef NDEBUG
    // probe() is per reference, so its range check is a BP_DCHECK.
    EXPECT_DEATH(tagged.probe(16, 7), "tagged-table index out of range");
#endif
}

} // namespace
} // namespace bpred
