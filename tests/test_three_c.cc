/**
 * @file
 * Unit tests for the three-Cs aliasing decomposition.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "aliasing/three_c.hh"
#include "core/skew.hh"
#include "model/distance_profile.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "workloads/presets.hh"

namespace bpred
{
namespace
{

/** A trace of `sites` branches visited round-robin, `rounds` times. */
Trace
roundRobinTrace(u64 sites, u64 rounds)
{
    Trace trace("round-robin");
    Rng rng(5);
    for (u64 r = 0; r < rounds; ++r) {
        for (u64 s = 0; s < sites; ++s) {
            trace.appendConditional(0x1000 + 4 * s, rng.chance(0.5));
        }
    }
    return trace;
}

TEST(ThreeCs, SingleBranchZeroHistoryHasOnlyCompulsory)
{
    Trace trace("one");
    for (int i = 0; i < 100; ++i) {
        trace.appendConditional(0x100, true);
    }
    IndexFunction function{IndexKind::Address, 4, 0};
    const ThreeCsResult result = measureThreeCs(trace, function);
    EXPECT_EQ(result.dynamicBranches, 100u);
    EXPECT_DOUBLE_EQ(result.compulsory, 0.01);
    EXPECT_DOUBLE_EQ(result.totalAliasing, 0.01);
    EXPECT_DOUBLE_EQ(result.faMissRatio, 0.01);
    EXPECT_DOUBLE_EQ(result.capacity(), 0.0);
    EXPECT_DOUBLE_EQ(result.conflict(), 0.0);
}

TEST(ThreeCs, PureConflictScenario)
{
    // Two addresses that collide in a tiny address-indexed table
    // but fit easily in the FA table: all aliasing is conflict.
    Trace trace("conflict");
    const Addr a = 0x1000;
    const Addr b = a + (4 << 1); // same low index bits for 1-bit index
    for (int i = 0; i < 100; ++i) {
        trace.appendConditional(a, true);
        trace.appendConditional(b, true);
    }
    IndexFunction function{IndexKind::Address, 1, 0};
    const ThreeCsResult result = measureThreeCs(trace, function);
    // DM table: every access aliases (ping-pong).
    EXPECT_GT(result.totalAliasing, 0.9);
    // FA table with 2 entries holds both: only compulsory misses.
    EXPECT_DOUBLE_EQ(result.faMissRatio, result.compulsory);
    EXPECT_GT(result.conflict(), 0.9);
}

TEST(ThreeCs, PureCapacityScenario)
{
    // Working set much larger than the table, visited round-robin:
    // both DM and FA alias on essentially every access.
    const Trace trace = roundRobinTrace(256, 20);
    IndexFunction function{IndexKind::Address, 4, 0}; // 16 entries
    const ThreeCsResult result = measureThreeCs(trace, function);
    EXPECT_GT(result.faMissRatio, 0.95);
    EXPECT_GT(result.capacity(), 0.9);
    // Conflict component is small: FA does no better than DM here.
    EXPECT_LT(result.conflict(), 0.05);
}

TEST(ThreeCs, LargeTableRemovesCapacity)
{
    const Trace trace = roundRobinTrace(256, 20);
    IndexFunction function{IndexKind::Address, 10, 0}; // 1024 entries
    const ThreeCsResult result = measureThreeCs(trace, function);
    // Table holds the whole working set.
    EXPECT_DOUBLE_EQ(result.faMissRatio, result.compulsory);
    EXPECT_NEAR(result.capacity(), 0.0, 1e-12);
    EXPECT_NEAR(result.totalAliasing, result.compulsory, 1e-12);
}

TEST(ThreeCs, MultiSharesOnePassResults)
{
    const Trace trace = roundRobinTrace(64, 10);
    std::vector<IndexFunction> functions = {
        {IndexKind::GShare, 8, 4},
        {IndexKind::GSelect, 8, 4},
    };
    const auto results = measureThreeCsMulti(trace, functions);
    ASSERT_EQ(results.size(), 2u);
    // Shared measurements agree across entries.
    EXPECT_DOUBLE_EQ(results[0].faMissRatio, results[1].faMissRatio);
    EXPECT_DOUBLE_EQ(results[0].compulsory, results[1].compulsory);
    EXPECT_EQ(results[0].dynamicBranches,
              results[1].dynamicBranches);
}

TEST(ThreeCs, MismatchedHistoryBitsRejected)
{
    const Trace trace = roundRobinTrace(4, 2);
    std::vector<IndexFunction> functions = {
        {IndexKind::GShare, 8, 4},
        {IndexKind::GShare, 8, 6},
    };
    EXPECT_THROW(measureThreeCsMulti(trace, functions), FatalError);
}

TEST(ThreeCs, EmptyFunctionListRejected)
{
    const Trace trace = roundRobinTrace(4, 2);
    EXPECT_THROW(measureThreeCsMulti(trace, {}), FatalError);
}

TEST(ThreeCs, UnconditionalBranchesEnterHistoryOnly)
{
    // Unconditional branches must not appear in the aliasing
    // denominators but must perturb the history (changing keys).
    Trace with_uncond("u");
    Trace without("w");
    for (int i = 0; i < 50; ++i) {
        with_uncond.appendConditional(0x100, true);
        with_uncond.appendUnconditional(0x200);
        without.appendConditional(0x100, true);
    }
    IndexFunction function{IndexKind::GShare, 6, 4};
    const auto a = measureThreeCs(with_uncond, function);
    const auto b = measureThreeCs(without, function);
    EXPECT_EQ(a.dynamicBranches, b.dynamicBranches);
    // With unconditional branches interleaved, the history at the
    // conditional site differs (1010... vs 1111...), but both
    // streams settle into one repeating (addr, hist) pair; the
    // measurement itself must simply not count the unconditional
    // records.
    EXPECT_EQ(a.dynamicBranches, 50u);
}

TEST(ThreeCs, SkewIndexFunctionsMeasurable)
{
    // The skew-bank index kinds must work as measurement functions
    // too (used by the mapping-conflict analyses): per-bank
    // aliasing ratios are similar across the three banks, and the
    // shared FA measurement is identical.
    const Trace trace = roundRobinTrace(128, 10);
    const std::vector<IndexFunction> functions = {
        {IndexKind::Skew0, 6, 4},
        {IndexKind::Skew1, 6, 4},
        {IndexKind::Skew2, 6, 4},
    };
    const auto results = measureThreeCsMulti(trace, functions);
    ASSERT_EQ(results.size(), 3u);
    for (const auto &result : results) {
        EXPECT_GT(result.totalAliasing, 0.0);
        EXPECT_DOUBLE_EQ(result.faMissRatio,
                         results[0].faMissRatio);
    }
    // Balanced hashes: per-bank aliasing within 25% of each other.
    const double base = results[0].totalAliasing;
    EXPECT_NEAR(results[1].totalAliasing, base, base * 0.25);
    EXPECT_NEAR(results[2].totalAliasing, base, base * 0.25);
}

TEST(IndexFunctionNames, Readable)
{
    EXPECT_EQ((IndexFunction{IndexKind::GShare, 10, 4}).name(),
              "gshare/10/h4");
    EXPECT_EQ((IndexFunction{IndexKind::GSelect, 12, 12}).name(),
              "gselect/12/h12");
    EXPECT_EQ((IndexFunction{IndexKind::Address, 8, 0}).name(),
              "address/8/h0");
    EXPECT_EQ((IndexFunction{IndexKind::Skew1, 9, 6}).name(),
              "skew-f1/9/h6");
}

TEST(IndexFunctionCall, MatchesUnderlyingFunctions)
{
    // The resolved recipe against the predictors' own index
    // functions, at every index width the tagged tables take and
    // histories shorter than, equal to and (folded) longer than it.
    Rng rng(17);
    for (unsigned n = 1; n <= 28; ++n) {
        for (unsigned k = 0; k <= 44; ++k) {
            const IndexFunction gshare{IndexKind::GShare, n, k};
            const IndexFunction gselect{IndexKind::GSelect, n, k};
            const IndexFunction address{IndexKind::Address, n, k};
            for (int i = 0; i < 20; ++i) {
                const Addr pc = rng.next();
                const History h = rng.next();
                ASSERT_EQ(gshare(pc, h), u64(gshareIndex(pc, h, k, n)))
                    << gshare.name();
                ASSERT_EQ(gselect(pc, h), u64(gselectIndex(pc, h, k, n)))
                    << gselect.name();
                ASSERT_EQ(address(pc, h), u64(addressIndex(pc, n)))
                    << address.name();
                const u64 v = packInfoVector(pc, h, k);
                for (unsigned bank = 0; bank < 3; ++bank) {
                    const IndexFunction skew{
                        static_cast<IndexKind>(
                            static_cast<unsigned>(IndexKind::Skew0) + bank),
                        n, k};
                    ASSERT_EQ(skew(pc, h), u64(skewIndex(bank, v, n)))
                        << skew.name();
                }
            }
        }
    }
}

TEST(ThreeCs, FaMissesObeyMattsonInclusion)
{
    // The paper's capacity aliasing, by definition: an LRU table of
    // C entries misses on a reference exactly when it is the first
    // one to its (address, history) pair or when at least C other
    // distinct pairs came since its last use. So the timestamp LRU
    // count behind measureThreeCsMulti must agree, count for count,
    // with the independent Fenwick stack-distance tracker, at every
    // Figure 1 (h=4) and Figure 2 (h=12) capacity.
    const struct
    {
        unsigned historyBits;
        std::vector<unsigned> sizeBits;
    } figures[] = {{4, {10, 11, 12, 13, 14, 15, 16}},
                   {12, {10, 12, 14, 16, 18}}};
    const auto count = [](double ratio, u64 total) {
        return static_cast<u64>(
            std::llround(ratio * static_cast<double>(total)));
    };
    for (const std::string &name : ibsBenchmarkNames()) {
        const Trace trace = makeIbsTrace(name, 0.02);
        for (const auto &figure : figures) {
            const DistanceProfile profile =
                profileDistances(trace, figure.historyBits);
            for (const unsigned bits : figure.sizeBits) {
                const u64 capacity = u64(1) << bits;
                u64 far = 0;
                for (const auto &[distance, n] :
                     profile.distances.sorted()) {
                    far += distance >= capacity ? n : 0;
                }
                const ThreeCsResult result = measureThreeCs(
                    trace,
                    {IndexKind::GShare, bits, figure.historyBits});
                const u64 total = result.dynamicBranches;
                ASSERT_EQ(total, profile.dynamicBranches);
                EXPECT_EQ(count(result.compulsory, total),
                          profile.compulsory)
                    << name << " h" << figure.historyBits;
                EXPECT_EQ(count(result.faMissRatio, total),
                          profile.compulsory + far)
                    << name << " h" << figure.historyBits << " C "
                    << capacity;
            }
        }
    }
}

} // namespace
} // namespace bpred
