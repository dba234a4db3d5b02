/**
 * @file
 * measureThreeCsMulti against the textbook aliasing oracle
 * (aliasing_reference.hh): the tagged direct-mapped, FA-LRU and
 * compulsory ratios must match it bit for bit on every preset over
 * the Figure 1 and Figure 2 grids, for one-, two- and three-function
 * mixes of all six index kinds, and on a trace whose identity is the
 * all-ones word.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "aliasing/three_c.hh"
#include "aliasing_reference.hh"
#include "support/rng.hh"
#include "trace/trace.hh"
#include "workloads/presets.hh"

namespace bpred
{
namespace
{

paper::Hash
oracleHash(IndexKind kind)
{
    switch (kind) {
      case IndexKind::GShare:
        return paper::Hash::Gshare;
      case IndexKind::GSelect:
        return paper::Hash::Gselect;
      case IndexKind::Address:
        return paper::Hash::Address;
      case IndexKind::Skew0:
        return paper::Hash::Skew0;
      case IndexKind::Skew1:
        return paper::Hash::Skew1;
      case IndexKind::Skew2:
        return paper::Hash::Skew2;
    }
    return paper::Hash::Gshare;
}

/** The oracle's ratio: @p events over @p references, 0 when empty. */
double
ratio(u64 events, u64 references)
{
    return references == 0
        ? 0.0
        : static_cast<double>(events) / static_cast<double>(references);
}

/** Equal down to the last bit of the double. */
void
expectSameBits(double got, double want, const std::string &what)
{
    EXPECT_EQ(std::bit_cast<u64>(got), std::bit_cast<u64>(want))
        << what << ": got " << got << ", oracle " << want;
}

/**
 * Run @p functions through measureThreeCsMulti and the oracle over
 * @p trace and compare all three ratios of every function.
 */
void
expectMatchesOracle(const Trace &trace,
                    const std::vector<IndexFunction> &functions)
{
    std::vector<paper::Meter> meters;
    for (const IndexFunction &function : functions) {
        meters.push_back({oracleHash(function.kind), function.indexBits});
    }
    paper::ThreeCs oracle(meters, functions.front().historyBits,
                          std::size_t(1) << functions.front().indexBits);
    for (const BranchRecord &record : trace) {
        if (record.conditional) {
            oracle.conditional(record.pc, record.taken);
        } else {
            oracle.unconditional();
        }
    }

    const std::vector<ThreeCsResult> results =
        measureThreeCsMulti(trace, functions);
    ASSERT_EQ(results.size(), functions.size());
    std::string mix;
    for (const IndexFunction &function : functions) {
        mix += ' ';
        mix += function.name();
    }
    for (std::size_t i = 0; i < functions.size(); ++i) {
        const ThreeCsResult &result = results[i];
        const std::string what = trace.name() + mix + " [" +
            functions[i].name() + "]";
        ASSERT_EQ(result.dynamicBranches, oracle.references) << what;
        expectSameBits(result.totalAliasing,
                       ratio(oracle.aliased[i], oracle.references),
                       what + " tagged DM");
        expectSameBits(result.faMissRatio,
                       ratio(oracle.lruMisses, oracle.references),
                       what + " FA-LRU");
        expectSameBits(result.compulsory,
                       ratio(oracle.firstReferences, oracle.references),
                       what + " compulsory");
    }
}

TEST(AliasingReference, FigureGridsMatchOracleOnEveryPreset)
{
    // Figure 1 (h = 4) and Figure 2 (h = 12): gshare and gselect
    // tagged tables beside one FA-LRU table, as their benches run.
    const struct
    {
        unsigned historyBits;
        std::vector<unsigned> sizeBits;
    } figures[] = {{4, {10, 11, 12, 13, 14, 15, 16}},
                   {12, {10, 12, 14, 16, 18}}};
    for (const std::string &name : ibsBenchmarkNames()) {
        const Trace trace = makeIbsTrace(name, 0.02);
        for (const auto &figure : figures) {
            for (const unsigned bits : figure.sizeBits) {
                expectMatchesOracle(
                    trace, {{IndexKind::GShare, bits, figure.historyBits},
                            {IndexKind::GSelect, bits,
                             figure.historyBits}});
            }
        }
    }
}

/**
 * Four loops of a few branches each, sites spread over 2^16 words,
 * entered in random order with a little outcome noise: (address,
 * history) pairs recur at every history length, so every table size
 * sees hits, conflicts and capacity misses.
 */
Trace
mixTrace()
{
    Trace trace("oracle-mix");
    Rng rng(21);
    std::vector<std::vector<Addr>> loops(4);
    for (std::vector<Addr> &body : loops) {
        body.resize(3 + rng.uniformInt(6));
        for (Addr &site : body) {
            site = 0x10000 + 4 * rng.uniformInt(1u << 16);
        }
    }
    while (trace.size() < 8000) {
        const std::vector<Addr> &body = loops[rng.uniformInt(4)];
        const u64 trips = 2 + rng.uniformInt(4);
        for (u64 trip = 0; trip < trips; ++trip) {
            for (std::size_t s = 0; s < body.size(); ++s) {
                if (s % 4 == 3) {
                    trace.appendUnconditional(body[s]);
                    continue;
                }
                trace.appendConditional(body[s],
                                        (s % 2 == 0) != rng.chance(0.05));
            }
            trace.appendConditional(body.front() + 8, trip + 1 < trips);
        }
    }
    return trace;
}

TEST(AliasingReference, FunctionMixesMatchOracle)
{
    // Every one-, two- and three-function mix of the six kinds, each
    // function at its own size (the FA table takes the first's), at
    // no history, a history shorter than every index and one longer.
    const IndexKind kinds[] = {IndexKind::GShare, IndexKind::GSelect,
                               IndexKind::Address, IndexKind::Skew0,
                               IndexKind::Skew1,   IndexKind::Skew2};
    const unsigned sizes[] = {7, 4, 10};
    const Trace trace = mixTrace();
    unsigned mixes = 0;
    for (const unsigned k : {0u, 3u, 13u}) {
        for (unsigned a = 0; a < 6; ++a) {
            expectMatchesOracle(trace, {{kinds[a], sizes[0], k}});
            ++mixes;
            for (unsigned b = a + 1; b < 6; ++b) {
                expectMatchesOracle(trace, {{kinds[a], sizes[0], k},
                                            {kinds[b], sizes[1], k}});
                ++mixes;
                for (unsigned c = b + 1; c < 6; ++c) {
                    expectMatchesOracle(trace,
                                        {{kinds[a], sizes[0], k},
                                         {kinds[b], sizes[1], k},
                                         {kinds[c], sizes[2], k}});
                    ++mixes;
                }
            }
        }
    }
    // 6 + 15 + 20 mixes at each of three history lengths.
    EXPECT_EQ(mixes, 3u * 41);
}

/** A trace of conditionals at sites @p sites: site s is 4 * (s + 1). */
Trace
siteTrace(const std::string &name, const std::vector<u64> &sites)
{
    Trace trace(name);
    for (const u64 site : sites) {
        trace.appendConditional(4 * (site + 1), true);
    }
    return trace;
}

/**
 * measureThreeCs at h = 0 and 2^@p bits entries against
 * paper::LruTable and a first-reference set fed the same pcs:
 * equal miss and compulsory counts and bit-equal ratios. Returns
 * the FA miss count.
 */
u64
expectLruCountsMatch(const Trace &trace, unsigned bits)
{
    paper::LruTable lru(std::size_t(1) << bits);
    std::set<u64> seen;
    u64 references = 0;
    u64 misses = 0;
    u64 first = 0;
    for (const BranchRecord &record : trace) {
        if (record.conditional) {
            ++references;
            misses += lru.reference({record.pc >> 2, 0}) ? 1 : 0;
            first += seen.insert(record.pc >> 2).second ? 1 : 0;
        }
    }
    const ThreeCsResult result =
        measureThreeCs(trace, {IndexKind::Address, bits, 0});
    const std::string what =
        trace.name() + " C " + std::to_string(u64(1) << bits);
    EXPECT_EQ(result.dynamicBranches, references) << what;
    const auto count = [references](double r) {
        return static_cast<u64>(
            std::llround(r * static_cast<double>(references)));
    };
    EXPECT_EQ(count(result.faMissRatio), misses) << what;
    EXPECT_EQ(count(result.compulsory), first) << what;
    expectSameBits(result.faMissRatio, ratio(misses, references),
                   what + " FA-LRU");
    expectSameBits(result.compulsory, ratio(first, references),
                   what + " compulsory");
    return misses;
}

TEST(AliasingReference, LruEdgeCasesMatchOracle)
{
    // Hand-built site streams at every capacity from 2 to 16, each
    // aimed at one step of the FA-LRU miss count: the hit test at
    // the LRU boundary, evictions that must skip superseded uses,
    // and traces with nothing to count.
    for (unsigned bits = 1; bits <= 4; ++bits) {
        const u64 c = u64(1) << bits;

        // Fill, evict site 0, then hit site 1, which is exactly the
        // LRU entry, then miss on the evicted site 0.
        std::vector<u64> sites;
        for (u64 s = 0; s <= c; ++s) {
            sites.push_back(s);
        }
        sites.push_back(1);
        sites.push_back(0);
        EXPECT_EQ(expectLruCountsMatch(siteTrace("lru-hit", sites), bits),
                  c + 2);

        // c + 1 sites round-robin: every reference misses, each
        // re-reference finding its site evicted.
        sites.clear();
        for (int round = 0; round < 5; ++round) {
            for (u64 s = 0; s <= c; ++s) {
                sites.push_back(s);
            }
        }
        EXPECT_EQ(
            expectLruCountsMatch(siteTrace("thrash", sites), bits),
            sites.size());

        // Fewer sites than entries: only first references miss.
        sites.clear();
        for (int round = 0; round < 7; ++round) {
            for (u64 s = 0; s + 1 < c; ++s) {
                sites.push_back(s);
            }
        }
        EXPECT_EQ(expectLruCountsMatch(siteTrace("fits", sites), bits),
                  c - 1);

        // One site hit hundreds of times between misses, so the
        // live stamps lie far apart and an eviction scans words of
        // superseded ones; then the hot site is the LRU victim.
        sites.assign({0});
        for (int i = 0; i < 300; ++i) {
            sites.push_back(1);
        }
        for (u64 s = 2; s <= c + 1; ++s) {
            sites.push_back(s);
        }
        sites.push_back(c + 1);
        sites.push_back(1);
        sites.push_back(0);
        EXPECT_EQ(
            expectLruCountsMatch(siteTrace("long-window", sites), bits),
            c + 4);

        // The whole table hot for many rounds, then new sites push
        // each old one out in LRU order, then the old ones return.
        sites.clear();
        for (int round = 0; round < 100; ++round) {
            for (u64 s = 0; s < c; ++s) {
                sites.push_back((s * 3 + u64(round)) % c);
            }
        }
        for (u64 s = c; s < 2 * c; ++s) {
            sites.push_back(s);
            sites.push_back(s);
        }
        for (u64 s = 0; s < c; ++s) {
            sites.push_back(s);
        }
        expectLruCountsMatch(siteTrace("hot-then-cold", sites), bits);

        // A small random pool just over capacity.
        sites.clear();
        Rng rng(23 + bits);
        for (int i = 0; i < 3000; ++i) {
            sites.push_back(rng.uniformInt(c + 3));
        }
        expectLruCountsMatch(siteTrace("random", sites), bits);

        // Nothing to count: no records, and only unconditionals.
        EXPECT_EQ(expectLruCountsMatch(Trace("empty"), bits), 0u);
        Trace unconditional("unconditional");
        for (u64 s = 0; s < 4 * c; ++s) {
            unconditional.appendUnconditional(4 * (s % 3 + 1));
        }
        EXPECT_EQ(expectLruCountsMatch(unconditional, bits), 0u);
        const ThreeCsResult none =
            measureThreeCs(unconditional, {IndexKind::Address, bits, 0});
        EXPECT_EQ(none.totalAliasing, 0.0);
        EXPECT_EQ(none.faMissRatio, 0.0);
        EXPECT_EQ(none.compulsory, 0.0);
    }
}

/** The largest word-aligned address: at h = 2 with history 11 its
 * identity packs to the all-ones word. */
constexpr Addr topPc = ~Addr(3);

TEST(AliasingReference, AllOnesIdentityIsCountedExactly)
{
    // Two taken unconditionals set history 11, and taken outcomes
    // keep it there: four references to the all-ones identity. Only
    // the first aliases, in every table.
    Trace repeat("all-ones");
    repeat.appendUnconditional(0x40);
    repeat.appendUnconditional(0x40);
    for (int i = 0; i < 4; ++i) {
        repeat.appendConditional(topPc, true);
    }
    for (const IndexKind kind :
         {IndexKind::GShare, IndexKind::GSelect, IndexKind::Address,
          IndexKind::Skew0, IndexKind::Skew1, IndexKind::Skew2}) {
        const ThreeCsResult result =
            measureThreeCs(repeat, {kind, 4, 2});
        EXPECT_EQ(result.dynamicBranches, 4u);
        EXPECT_EQ(result.totalAliasing, 0.25) << result.function.name();
        EXPECT_EQ(result.faMissRatio, 0.25);
        EXPECT_EQ(result.compulsory, 0.25);
    }

    // Mixed with neighbours that share its table entries (the top
    // word's low address bits, other histories), against the oracle.
    Trace mixed("all-ones-mixed");
    Rng rng(22);
    const Addr pool[] = {topPc,      topPc - 4,   topPc - 64,
                         4 * 0x3ff,  4 * 0xf,     0x1000};
    u64 all_ones = 0;
    u64 history = 0;
    for (int i = 0; i < 3000; ++i) {
        const Addr pc = pool[rng.uniformInt(6u)];
        if (rng.chance(0.1)) {
            mixed.appendUnconditional(pc);
            history = (history << 1) | 1;
            continue;
        }
        const bool taken = rng.chance(0.7);
        all_ones += pc == topPc && (history & 3) == 3 ? 1 : 0;
        mixed.appendConditional(pc, taken);
        history = (history << 1) | (taken ? 1 : 0);
    }
    ASSERT_GT(all_ones, 100u);
    for (const unsigned n : {4u, 10u}) {
        expectMatchesOracle(mixed, {{IndexKind::GShare, n, 2},
                                    {IndexKind::GSelect, n, 2},
                                    {IndexKind::Address, n, 2}});
        expectMatchesOracle(mixed, {{IndexKind::Skew0, n, 2},
                                    {IndexKind::Skew1, n, 2},
                                    {IndexKind::Skew2, n, 2}});
    }
}

} // namespace
} // namespace bpred
