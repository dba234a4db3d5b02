/**
 * @file
 * Unit tests for the flat per-site count table (support/site_table.hh).
 */

#include <gtest/gtest.h>

#include <map>

#include "support/rng.hh"
#include "support/site_table.hh"

namespace bpred
{
namespace
{

TEST(SiteTable, StartsEmpty)
{
    SiteTable table;
    EXPECT_EQ(table.size(), 0u);
    std::size_t visited = 0;
    table.forEach([&](Addr, const SiteCounts &) { ++visited; });
    EXPECT_EQ(visited, 0u);
}

TEST(SiteTable, CountsPerSite)
{
    SiteTable table;
    ++table.at(0x400).branches;
    ++table.at(0x404).branches;
    SiteCounts &site = table.at(0x400);
    ++site.branches;
    site.mispredicts += 1;
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.at(0x400).branches, 2u);
    EXPECT_EQ(table.at(0x400).mispredicts, 1u);
    EXPECT_EQ(table.at(0x404).branches, 1u);
    EXPECT_EQ(table.size(), 2u);
}

TEST(SiteTable, EveryAddressIsAKey)
{
    // The free-slot marker is a real address too: zero and the
    // all-ones pc must count like any other site.
    SiteTable table;
    table.at(0).branches = 3;
    table.at(~Addr(0)).branches = 5;
    table.at(~Addr(0)).mispredicts = 2;
    EXPECT_EQ(table.size(), 2u);
    std::map<Addr, SiteCounts> seen;
    table.forEach([&](Addr pc, const SiteCounts &counts) {
        seen[pc] = counts;
    });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].branches, 3u);
    EXPECT_EQ(seen[~Addr(0)].branches, 5u);
    EXPECT_EQ(seen[~Addr(0)].mispredicts, 2u);
}

TEST(SiteTable, MatchesStdMapThroughGrowth)
{
    // Enough distinct sites to force several doublings, with
    // clustered and scattered addresses, against a std::map oracle.
    SiteTable table;
    std::map<Addr, SiteCounts> oracle;
    Rng rng(77);
    for (int i = 0; i < 200000; ++i) {
        const Addr pc = rng.chance(0.7)
            ? 0x40'0000 + 4 * rng.uniformInt(3000)
            : rng.next();
        const bool wrong = rng.chance(0.1);
        SiteCounts &got = table.at(pc);
        ++got.branches;
        got.mispredicts += wrong ? 1 : 0;
        SiteCounts &want = oracle[pc];
        ++want.branches;
        want.mispredicts += wrong ? 1 : 0;
    }
    EXPECT_EQ(table.size(), oracle.size());
    std::size_t visited = 0;
    table.forEach([&](Addr pc, const SiteCounts &counts) {
        ++visited;
        const auto it = oracle.find(pc);
        ASSERT_NE(it, oracle.end());
        EXPECT_EQ(counts.branches, it->second.branches);
        EXPECT_EQ(counts.mispredicts, it->second.mispredicts);
    });
    EXPECT_EQ(visited, oracle.size());
}

} // namespace
} // namespace bpred
