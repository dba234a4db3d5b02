/**
 * @file
 * Unit tests for the fully-associative LRU table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "aliasing/fa_lru_table.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/serialize.hh"

namespace bpred
{
namespace
{

TEST(FaLru, ColdMiss)
{
    FullyAssociativeLruTable table(4);
    EXPECT_EQ(table.access(1), nullptr);
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(table.missStat().events(), 1u);
}

TEST(FaLru, HitReturnsPayload)
{
    FullyAssociativeLruTable table(4);
    table.access(1, 9);
    u8 *payload = table.access(1);
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(*payload, 9);
}

TEST(FaLru, PayloadMutableThroughPointer)
{
    FullyAssociativeLruTable table(4);
    table.access(1, 0);
    u8 *payload = table.access(1);
    ASSERT_NE(payload, nullptr);
    *payload = 7;
    EXPECT_EQ(*table.peek(1), 7);
}

TEST(FaLru, EvictsLeastRecentlyUsed)
{
    FullyAssociativeLruTable table(3);
    table.access(1);
    table.access(2);
    table.access(3);
    table.access(1);     // 1 becomes MRU; LRU is now 2
    table.access(4);     // evicts 2
    EXPECT_NE(table.peek(1), nullptr);
    EXPECT_EQ(table.peek(2), nullptr);
    EXPECT_NE(table.peek(3), nullptr);
    EXPECT_NE(table.peek(4), nullptr);
    EXPECT_EQ(table.size(), 3u);
}

TEST(FaLru, PeekDoesNotTouch)
{
    FullyAssociativeLruTable table(2);
    table.access(1);
    table.access(2);
    table.peek(1);       // must NOT refresh 1
    table.access(3);     // evicts 1 (the true LRU)
    EXPECT_EQ(table.peek(1), nullptr);
    EXPECT_NE(table.peek(2), nullptr);
}

TEST(FaLru, SetPayload)
{
    FullyAssociativeLruTable table(2);
    table.access(5, 1);
    table.setPayload(5, 3);
    EXPECT_EQ(*table.peek(5), 3);
}

TEST(FaLru, CapacityOne)
{
    FullyAssociativeLruTable table(1);
    table.access(1);
    table.access(2);
    EXPECT_EQ(table.peek(1), nullptr);
    EXPECT_NE(table.peek(2), nullptr);
}

TEST(FaLru, MissStatTracksRatio)
{
    FullyAssociativeLruTable table(2);
    table.access(1); // miss
    table.access(1); // hit
    table.access(2); // miss
    table.access(1); // hit
    EXPECT_DOUBLE_EQ(table.missStat().ratio(), 0.5);
}

TEST(FaLru, Reset)
{
    FullyAssociativeLruTable table(2);
    table.access(1);
    table.reset();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.missStat().total(), 0u);
    EXPECT_EQ(table.peek(1), nullptr);
}

TEST(FaLru, StackDistanceSemantics)
{
    // A key is retained iff fewer than `capacity` distinct keys
    // intervene — the property that makes this table measure
    // capacity aliasing.
    FullyAssociativeLruTable table(3);
    table.access(100);
    table.access(1);
    table.access(2);
    EXPECT_NE(table.peek(100), nullptr); // distance 2 < 3: resident
    table.access(3);
    EXPECT_EQ(table.peek(100), nullptr); // distance 3 >= 3: evicted
}

TEST(FaLru, LongSequenceConsistency)
{
    // Cross-check size bound and hit behaviour over a pseudo-random
    // stream.
    FullyAssociativeLruTable table(16);
    u64 lcg = 9;
    for (int i = 0; i < 10000; ++i) {
        lcg = lcg * 6364136223846793005ULL + 1;
        table.access((lcg >> 40) % 64);
        ASSERT_LE(table.size(), 16u);
    }
    EXPECT_GT(table.missStat().events(), 0u);
    EXPECT_LT(table.missStat().ratio(), 1.0);
}

/**
 * The obvious O(capacity) LRU: a vector ordered MRU first. The
 * oracle for the flat table's linked nodes.
 */
class NaiveLru
{
  public:
    explicit NaiveLru(std::size_t capacity) : capacity(capacity) {}

    /** As FullyAssociativeLruTable::access: payload on hit, else null. */
    u8 *
    access(u64 key, u8 initial)
    {
        ++total;
        const auto it = std::find_if(
            entries.begin(), entries.end(),
            [key](const Entry &entry) { return entry.key == key; });
        if (it != entries.end()) {
            std::rotate(entries.begin(), it, it + 1);
            return &entries.front().payload;
        }
        ++missCount;
        if (entries.size() == capacity) {
            entries.pop_back();
        }
        entries.insert(entries.begin(), {key, initial});
        return nullptr;
    }

    /** The saveState() bytes the real table must produce. */
    std::string
    snapshot() const
    {
        std::string bytes;
        ByteWriter out(bytes);
        out.putU64(capacity);
        out.putU64(entries.size());
        for (const Entry &entry : entries) {
            out.putU64(entry.key);
            out.putU8(entry.payload);
        }
        out.putU64(missCount);
        out.putU64(total);
        return bytes;
    }

  private:
    struct Entry
    {
        u64 key;
        u8 payload;
    };

    std::vector<Entry> entries;
    std::size_t capacity;
    u64 missCount = 0;
    u64 total = 0;
};

std::string
snapshotOf(const FullyAssociativeLruTable &table)
{
    std::string bytes;
    ByteWriter out(bytes);
    table.saveState(out);
    return bytes;
}

TEST(FaLru, MatchesNaiveLruAcrossSnapshotRoundTrip)
{
    // Random streams over key ranges smaller and larger than the
    // capacity, with 0 and the all-ones key mixed in. Halfway, the
    // table is saved and restored into a fresh one, which carries
    // on; hits, misses, payloads and snapshot bytes must track the
    // naive oracle throughout.
    for (const u64 capacity : {1u, 2u, 3u, 7u, 64u, 300u}) {
        for (const u64 keys : {capacity / 2 + 1, capacity * 2, 4096ul}) {
            Rng rng(capacity * 1000 + keys);
            NaiveLru oracle(capacity);
            auto table = std::make_unique<FullyAssociativeLruTable>(
                capacity);
            constexpr int steps = 6000;
            for (int i = 0; i < steps; ++i) {
                if (i == steps / 2) {
                    const std::string bytes = snapshotOf(*table);
                    ASSERT_EQ(bytes, oracle.snapshot());
                    auto restored =
                        std::make_unique<FullyAssociativeLruTable>(
                            capacity);
                    ByteReader in(bytes);
                    restored->loadState(in);
                    ASSERT_EQ(snapshotOf(*restored), bytes);
                    table = std::move(restored);
                }
                u64 key = rng.uniformInt(keys);
                if (rng.chance(0.01)) {
                    key = rng.chance(0.5) ? 0 : ~u64(0);
                }
                const u8 initial = static_cast<u8>(i);
                u8 *got = table->access(key, initial);
                u8 *want = oracle.access(key, initial);
                ASSERT_EQ(got == nullptr, want == nullptr)
                    << "capacity " << capacity << " step " << i;
                if (got != nullptr) {
                    ASSERT_EQ(*got, *want);
                    *got = *want = static_cast<u8>(*got + 1);
                }
                ASSERT_NE(table->peek(key), nullptr);
                ASSERT_LE(table->size(), capacity);
            }
            EXPECT_EQ(snapshotOf(*table), oracle.snapshot());
        }
    }
}

TEST(FaLru, RejectsCapacityOutsideNodeIndexRange)
{
    EXPECT_THROW(FullyAssociativeLruTable(0), FatalError);
    EXPECT_THROW(FullyAssociativeLruTable(u64(1) << 32), FatalError);
}

TEST(FaLru, LoadStateRejectsCorruptSnapshots)
{
    FullyAssociativeLruTable table(4);
    table.access(1, 1);
    table.access(2, 2);
    const std::string good = snapshotOf(table);

    const auto load = [](const std::string &bytes) {
        FullyAssociativeLruTable target(4);
        ByteReader in(bytes);
        target.loadState(in);
    };
    EXPECT_NO_THROW(load(good));
    // Bytes 8..15 hold the entry count; 16..24 the MRU entry.
    std::string inflated = good;
    inflated[8 + 6] = 1;
    EXPECT_THROW(load(inflated), FatalError);
    std::string duplicate = good;
    for (int b = 0; b < 8; ++b) {
        duplicate[25 + b] = duplicate[16 + b];
    }
    EXPECT_THROW(load(duplicate), FatalError);
    EXPECT_THROW(load(good.substr(0, good.size() - 1)), FatalError);
    FullyAssociativeLruTable bigger(5);
    ByteReader in(good);
    EXPECT_THROW(bigger.loadState(in), FatalError);
}

} // namespace
} // namespace bpred
