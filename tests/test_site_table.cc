/**
 * @file
 * Unit tests for the flat identity table (support/site_table.hh):
 * the corpus runner's SiteTable and the generic FlatTable behind it.
 */

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <vector>

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

/** Check every key of @p model, and nothing else, is in @p table. */
void
expectSameContents(const FlatTable<u64> &table,
                   const std::unordered_map<u64, u64> &model)
{
    ASSERT_EQ(table.size(), model.size());
    for (const auto &[key, value] : model) {
        const u64 *got = table.find(key);
        ASSERT_NE(got, nullptr) << "key " << key;
        EXPECT_EQ(*got, value) << "key " << key;
    }
    std::size_t visited = 0;
    table.forEach([&](u64 key, u64 value) {
        ++visited;
        const auto it = model.find(key);
        ASSERT_NE(it, model.end()) << "stray key " << key;
        EXPECT_EQ(value, it->second);
    });
    EXPECT_EQ(visited, model.size());
}

TEST(FlatTable, FindNeverInserts)
{
    FlatTable<u64> table;
    EXPECT_EQ(table.find(7), nullptr);
    EXPECT_EQ(table.find(~u64(0)), nullptr);
    EXPECT_TRUE(table.empty());
    EXPECT_FALSE(table.erase(7));
    EXPECT_FALSE(table.erase(~u64(0)));
    auto [value, inserted] = table.tryEmplace(7);
    EXPECT_TRUE(inserted);
    value = 70;
    EXPECT_FALSE(table.tryEmplace(7).second);
    EXPECT_EQ(*table.find(7), 70u);
    EXPECT_EQ(table.find(8), nullptr);
    EXPECT_EQ(table.size(), 1u);
}

TEST(FlatTable, RandomOperationsMatchUnorderedMap)
{
    // Inserts, lookups and erases through several doublings, with a
    // key range small enough that erased keys come back.
    FlatTable<u64> table;
    std::unordered_map<u64, u64> model;
    Rng rng(2024);
    for (int i = 0; i < 300000; ++i) {
        const u64 key = rng.chance(0.9) ? rng.uniformInt(20000)
                                        : rng.next();
        const u64 op = rng.uniformInt(10);
        if (op < 5) {
            auto [value, inserted] = table.tryEmplace(key);
            const auto [it, model_inserted] = model.try_emplace(key, 0);
            ASSERT_EQ(inserted, model_inserted);
            value += u64(i);
            it->second += u64(i);
        } else if (op < 8) {
            ASSERT_EQ(table.erase(key), model.erase(key) == 1);
        } else {
            const u64 *got = table.find(key);
            const auto it = model.find(key);
            ASSERT_EQ(got == nullptr, it == model.end());
            if (got != nullptr) {
                ASSERT_EQ(*got, it->second);
            }
        }
        ASSERT_EQ(table.size(), model.size());
    }
    expectSameContents(table, model);
}

TEST(FlatTable, EraseInsideWrappedProbeClusters)
{
    // Keys hashed to the last slots of the initial 1024-slot array
    // form a probe cluster that wraps past index 0; erasing from
    // its middle must shift the survivors back across the wrap.
    // The hash is recomputed here only to construct such keys.
    const auto home = [](u64 key) {
        return std::size_t((key * 0x9e3779b97f4a7c15ull) >> 54);
    };
    std::vector<u64> keys;
    for (const std::size_t slot : {1022u, 1023u, 1023u, 0u, 1023u,
                                   1u, 0u, 1022u}) {
        u64 key = keys.empty() ? 1 : keys.back() + 1;
        while (home(key) != slot) {
            ++key;
        }
        keys.push_back(key);
    }
    // Every erase order over a few prefixes of the cluster.
    for (std::size_t victim = 0; victim < keys.size(); ++victim) {
        for (std::size_t second = 0; second < keys.size(); ++second) {
            FlatTable<u64> table;
            std::unordered_map<u64, u64> model;
            for (const u64 key : keys) {
                table.at(key) = key * 3;
                model[key] = key * 3;
            }
            ASSERT_TRUE(table.erase(keys[victim]));
            model.erase(keys[victim]);
            expectSameContents(table, model);
            ASSERT_EQ(table.erase(keys[second]), second != victim);
            model.erase(keys[second]);
            expectSameContents(table, model);
            // Reinsert both: they must land findable again.
            table.at(keys[victim]) = 1;
            model[keys[victim]] = 1;
            expectSameContents(table, model);
        }
    }
}

TEST(FlatTable, SentinelKeyIsAnOrdinaryKey)
{
    FlatTable<u64> table;
    std::unordered_map<u64, u64> model;
    const u64 sentinel = ~u64(0);
    EXPECT_TRUE(table.tryEmplace(sentinel).second);
    table.at(sentinel) = 5;
    model[sentinel] = 5;
    table.at(0) = 6;
    model[0] = 6;
    expectSameContents(table, model);
    EXPECT_FALSE(table.tryEmplace(sentinel).second);
    EXPECT_TRUE(table.erase(sentinel));
    model.erase(sentinel);
    expectSameContents(table, model);
    EXPECT_EQ(table.find(sentinel), nullptr);
    // A reinserted sentinel starts from a fresh value.
    EXPECT_TRUE(table.tryEmplace(sentinel).second);
    EXPECT_EQ(*table.find(sentinel), 0u);
    table.clear();
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.find(sentinel), nullptr);
    EXPECT_EQ(table.find(0), nullptr);
}

TEST(FlatTable, KeySetCountsDistinctKeys)
{
    FlatTable<NoValue> set;
    for (u64 key : {3u, 4u, 3u, 5u, 4u}) {
        set.tryEmplace(key);
    }
    EXPECT_EQ(set.size(), 3u);
    EXPECT_TRUE(set.erase(4));
    EXPECT_EQ(set.size(), 2u);
    EXPECT_EQ(set.find(4), nullptr);
    EXPECT_NE(set.find(5), nullptr);
}

} // namespace
} // namespace bpred
