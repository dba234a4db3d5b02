/**
 * @file
 * Unit tests for the direct-mapped tagged shadow table.
 */

#include <gtest/gtest.h>

#include "aliasing/tagged_table.hh"

namespace bpred
{
namespace
{

TEST(TaggedDmTable, ColdAccessIsMiss)
{
    TaggedDirectMappedTable table(4);
    EXPECT_TRUE(table.access(0, 111));
    EXPECT_EQ(table.aliasing().events(), 1u);
    EXPECT_EQ(table.aliasing().total(), 1u);
}

TEST(TaggedDmTable, RepeatAccessIsHit)
{
    TaggedDirectMappedTable table(4);
    table.access(3, 42);
    EXPECT_FALSE(table.access(3, 42));
    EXPECT_DOUBLE_EQ(table.aliasing().ratio(), 0.5);
}

TEST(TaggedDmTable, DifferentKeySameIndexAliases)
{
    TaggedDirectMappedTable table(4);
    table.access(5, 1);
    EXPECT_TRUE(table.access(5, 2)); // conflict
    EXPECT_TRUE(table.access(5, 1)); // evicted, aliases again
}

TEST(TaggedDmTable, IndependentEntries)
{
    TaggedDirectMappedTable table(3);
    table.access(0, 10);
    table.access(1, 11);
    EXPECT_FALSE(table.access(0, 10));
    EXPECT_FALSE(table.access(1, 11));
}

TEST(TaggedDmTable, Size)
{
    TaggedDirectMappedTable table(10);
    EXPECT_EQ(table.size(), 1024u);
}

TEST(TaggedDmTable, ResetClears)
{
    TaggedDirectMappedTable table(4);
    table.access(0, 7);
    table.access(0, 7);
    table.reset();
    EXPECT_EQ(table.aliasing().total(), 0u);
    EXPECT_TRUE(table.access(0, 7)); // cold again
}

TEST(TaggedDmTable, PingPongConflictPattern)
{
    // Two substreams sharing one entry alias on every access — the
    // canonical conflict-aliasing picture.
    TaggedDirectMappedTable table(2);
    int misses = 0;
    for (int i = 0; i < 100; ++i) {
        misses += table.access(1, i % 2 == 0 ? 100 : 200);
    }
    EXPECT_EQ(misses, 100);
}

TEST(TaggedDmTable, AllOnesKeyIsAnOrdinaryIdentity)
{
    // The all-ones identity occurs in real traces (a PC at or above
    // 2^62 with at least two history bits); an entry must tell it
    // apart from never having been referenced.
    const u64 ones = ~u64(0);
    using Outcome = TaggedDirectMappedTable::Outcome;
    TaggedDirectMappedTable table(3);
    EXPECT_EQ(table.probe(2, ones), Outcome::Cold);
    EXPECT_EQ(table.probe(2, ones), Outcome::Hit);
    EXPECT_EQ(table.probe(2, 9), Outcome::Conflict);
    EXPECT_EQ(table.probe(2, ones), Outcome::Conflict);
    EXPECT_EQ(table.probe(5, 9), Outcome::Cold);
    EXPECT_EQ(table.probe(5, ones), Outcome::Conflict);
    EXPECT_EQ(table.probe(5, ones), Outcome::Hit);
    EXPECT_EQ(table.probe(6, 9), Outcome::Cold);
    EXPECT_EQ(table.aliasing().events(), 6u);
    EXPECT_EQ(table.aliasing().total(), 8u);

    table.reset();
    EXPECT_EQ(table.probe(2, ones), Outcome::Cold);
    EXPECT_EQ(table.probe(5, 9), Outcome::Cold);
}

} // namespace
} // namespace bpred
