/**
 * @file
 * Unit tests for the bounded top-K (space-saving) counter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/logging.hh"
#include "support/rng.hh"
#include "support/topk.hh"

namespace bpred
{
namespace
{

TEST(TopKCounter, RejectsZeroCapacity)
{
    EXPECT_THROW(TopKCounter(0), FatalError);
}

TEST(TopKCounter, ExactUnderCapacity)
{
    TopKCounter topk(4);
    topk.add(10);
    topk.add(20);
    topk.add(10);
    topk.add(10, 2);

    EXPECT_EQ(topk.size(), 2u);
    EXPECT_EQ(topk.totalAdded(), 5u);

    const auto items = topk.items();
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items[0].key, 10u);
    EXPECT_EQ(items[0].count, 4u);
    EXPECT_EQ(items[0].overcount, 0u);
    EXPECT_EQ(items[1].key, 20u);
    EXPECT_EQ(items[1].count, 1u);
    EXPECT_EQ(items[1].overcount, 0u);
}

TEST(TopKCounter, EvictionInheritsMinCount)
{
    TopKCounter topk(2);
    topk.add(1, 5);
    topk.add(2, 1);
    // Capacity full; key 3 evicts the min slot (key 2, count 1) and
    // inherits its count as overcount.
    topk.add(3, 1);

    EXPECT_EQ(topk.size(), 2u);
    const auto items = topk.items();
    EXPECT_EQ(items[0].key, 1u);
    EXPECT_EQ(items[0].count, 5u);
    EXPECT_EQ(items[1].key, 3u);
    EXPECT_EQ(items[1].count, 2u); // min(1) + weight(1)
    EXPECT_EQ(items[1].overcount, 1u);
}

TEST(TopKCounter, EstimateNeverUnderestimates)
{
    // The space-saving invariant: estimate >= true count, and
    // estimate - overcount <= true count.
    TopKCounter topk(3);
    u64 true_count_of_7 = 0;
    const u64 keys[] = {1, 2, 3, 4, 5, 7, 7, 6, 7, 8, 7, 7};
    for (u64 key : keys) {
        topk.add(key);
        if (key == 7) {
            ++true_count_of_7;
        }
    }
    for (const auto &item : topk.items()) {
        if (item.key == 7) {
            EXPECT_GE(item.count, true_count_of_7);
            EXPECT_LE(item.count - item.overcount, true_count_of_7);
            return;
        }
    }
    FAIL() << "heavy key 7 not tracked";
}

TEST(TopKCounter, HeavyHitterGuarantee)
{
    // Any key with true count > total / capacity must be present.
    TopKCounter topk(4);
    for (int round = 0; round < 100; ++round) {
        topk.add(999);                       // the heavy hitter
        topk.add(u64(1000 + round % 37));    // churn
    }
    bool found = false;
    for (const auto &item : topk.items()) {
        found = found || item.key == 999;
    }
    EXPECT_TRUE(found);
    EXPECT_EQ(topk.totalAdded(), 200u);
}

TEST(TopKCounter, ItemsSortedByCountThenKey)
{
    TopKCounter topk(4);
    topk.add(5, 2);
    topk.add(3, 2);
    topk.add(9, 7);
    const auto items = topk.items();
    ASSERT_EQ(items.size(), 3u);
    EXPECT_EQ(items[0].key, 9u);
    EXPECT_EQ(items[1].key, 3u); // tie on count: ascending key
    EXPECT_EQ(items[2].key, 5u);
}

TEST(TopKCounter, Reset)
{
    TopKCounter topk(2);
    topk.add(1);
    topk.add(2);
    topk.reset();
    EXPECT_EQ(topk.size(), 0u);
    EXPECT_EQ(topk.totalAdded(), 0u);
    EXPECT_TRUE(topk.items().empty());
    EXPECT_EQ(topk.capacity(), 2u);
}

TEST(TopKCounter, EvictionTiesBreakInDocumentedOrder)
{
    // Two slots at the minimum count: the victim is the first in
    // tie-break order. Keys 1 and 2 land in different buckets, so 2
    // (the newer bucket run) precedes 1 and is evicted first.
    TopKCounter topk(2);
    topk.add(1);
    topk.add(2);
    topk.add(3);
    const auto items = topk.items();
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items[0].key, 3u);
    EXPECT_EQ(items[0].count, 2u);
    EXPECT_EQ(items[0].overcount, 1u);
    EXPECT_EQ(items[1].key, 1u);
}

#ifdef __GLIBCXX__
/**
 * The counter as first written: slots in a std::unordered_map,
 * victim = first minimum in the map's iteration order. Under
 * libstdc++ that order is the one TopKCounter documents.
 */
class MapTopK
{
  public:
    explicit MapTopK(std::size_t capacity) : capacity(capacity)
    {
        slots.reserve(capacity);
    }

    void
    add(u64 key, u64 weight)
    {
        auto it = slots.find(key);
        if (it != slots.end()) {
            it->second.first += weight;
            return;
        }
        if (slots.size() < capacity) {
            slots.emplace(key, std::make_pair(weight, u64(0)));
            return;
        }
        auto victim = slots.begin();
        for (auto c = slots.begin(); c != slots.end(); ++c) {
            if (c->second.first < victim->second.first) {
                victim = c;
            }
        }
        const u64 floor = victim->second.first;
        slots.erase(victim);
        slots.emplace(key, std::make_pair(floor + weight, floor));
    }

    std::size_t capacity;
    std::unordered_map<u64, std::pair<u64, u64>> slots;
};

TEST(TopKCounter, MatchesMapBasedCounterOnSkewedStreams)
{
    // Results (keys, counts, overcounts) must equal the map-based
    // counter's on streams with heavy ties, at capacities on both
    // sides of the bucket count, with unit and larger weights.
    Rng rng(2024);
    for (const std::size_t capacity : {1u, 2u, 5u, 16u, 40u}) {
        TopKCounter topk(capacity);
        MapTopK reference(capacity);
        for (int i = 0; i < 20000; ++i) {
            // A few hot keys plus a long tail of one-off keys.
            const u64 key = rng.chance(0.5)
                ? 0x40'0000 + 4 * rng.uniformInt(8)
                : 0x80'0000 + 4 * rng.uniformInt(5000);
            const u64 weight = 1 + (key >> 2) % 3;
            topk.add(key, weight);
            reference.add(key, weight);
        }
        std::vector<TopKCounter::Item> want;
        for (const auto &[key, slot] : reference.slots) {
            want.push_back({key, slot.first, slot.second});
        }
        std::sort(want.begin(), want.end(),
                  [](const TopKCounter::Item &a,
                     const TopKCounter::Item &b) {
                      return a.count != b.count ? a.count > b.count
                                                : a.key < b.key;
                  });
        const auto got = topk.items();
        ASSERT_EQ(got.size(), want.size()) << "capacity " << capacity;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].key, want[i].key) << "capacity " << capacity;
            EXPECT_EQ(got[i].count, want[i].count);
            EXPECT_EQ(got[i].overcount, want[i].overcount);
        }
    }
}
#endif

} // namespace
} // namespace bpred
