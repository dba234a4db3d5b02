/**
 * @file
 * A textbook oracle for the paper's aliasing meters (§2 and §3),
 * written from their definitions and sharing no code with the
 * library.
 *
 * A reference is one dynamic conditional branch. Its identity is
 * its (address, history) pair: a >> 2 and the k youngest history
 * bits (youngest outcome in bit 0; an unconditional branch shifts in
 * taken). Per reference the oracle keeps:
 *
 *  - §2's tagged direct-mapped tables, one per index function: each
 *    entry has an explicit valid bit and remembers the pair that
 *    last indexed it, and a reference aliases when the entry is
 *    invalid or holds another pair;
 *  - §3's fully-associative LRU table of C entries, as a recency
 *    list: a reference misses when its pair is not among the C most
 *    recently used distinct pairs;
 *  - the set of pairs referenced so far: a first reference is
 *    compulsory aliasing.
 *
 * The index functions are the single-table slots and §4's skewing
 * functions f0, f1 and f2 of paper_reference.hh, over the
 * information vector V whose low k bits are the history and whose
 * higher bits are a >> 2. Each is spelled out bit by bit there.
 * Include only the standard library and paper_reference.hh here.
 */

#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "paper_reference.hh"

namespace paper
{

/** A reference's identity: (a >> 2, the k youngest history bits). */
using Pair = std::pair<std::uint64_t, std::uint64_t>;

/** The index functions the aliasing meters are driven by. */
enum class Hash
{
    Address,
    Gshare,
    Gselect,
    Skew0,
    Skew1,
    Skew2,
};

/**
 * The entry @p hash selects in a 2^@p n table for a branch at
 * @p pc under @p history, of which it reads the @p k youngest bits.
 * The skewing functions need n >= 2.
 */
inline std::uint64_t
hashSlot(Hash hash, std::uint64_t pc, std::uint64_t history, unsigned n,
         unsigned k)
{
    switch (hash) {
      case Hash::Address:
        return tableSlot(Index::Bimodal, pc, history, n, k);
      case Hash::Gshare:
        return tableSlot(Index::Gshare, pc, history, n, k);
      case Hash::Gselect:
        return tableSlot(Index::Gselect, pc, history, n, k);
      default:
        break;
    }
    return skewSlot(unsigned(hash) - unsigned(Hash::Skew0), pc, history,
                    n, k);
}

/** §2: a direct-mapped table of tags, each with a valid bit. */
class TaggedTable
{
  public:
    explicit TaggedTable(unsigned index_bits)
        : valid(std::size_t(1) << index_bits, false),
          tags(std::size_t(1) << index_bits)
    {
    }

    /** Reference entry @p slot with @p pair; true when it aliased. */
    bool
    reference(std::uint64_t slot, const Pair &pair)
    {
        const bool aliased = !valid[slot] || tags[slot] != pair;
        valid[slot] = true;
        tags[slot] = pair;
        return aliased;
    }

  private:
    std::vector<bool> valid;
    std::vector<Pair> tags;
};

/** §3: a fully-associative table of @p capacity entries under LRU. */
class LruTable
{
  public:
    explicit LruTable(std::size_t entries) : capacity(entries) {}

    /** Reference @p pair; true when it missed. */
    bool
    reference(const Pair &pair)
    {
        const auto found = where.find(pair);
        if (found != where.end()) {
            recency.splice(recency.begin(), recency, found->second);
            return false;
        }
        recency.push_front(pair);
        where[pair] = recency.begin();
        if (recency.size() > capacity) {
            where.erase(recency.back());
            recency.pop_back();
        }
        return true;
    }

  private:
    std::size_t capacity;
    /** Most recently used first. */
    std::list<Pair> recency;
    std::map<Pair, std::list<Pair>::iterator> where;
};

/** One tagged direct-mapped table's index function. */
struct Meter
{
    Hash hash;
    unsigned indexBits;
};

/**
 * The three-Cs meters over one trace: a tagged table per
 * @p meters entry, an LRU table of @p lru_capacity entries and the
 * first-reference set, all at history length @p k.
 */
class ThreeCs
{
  public:
    ThreeCs(const std::vector<Meter> &table_meters, unsigned history_bits,
            std::size_t lru_capacity)
        : aliased(table_meters.size(), 0), meters(table_meters),
          k(history_bits), lru(lru_capacity)
    {
        for (const Meter &meter : meters) {
            tables.emplace_back(meter.indexBits);
        }
    }

    /** One conditional branch at @p pc resolving @p taken. */
    void
    conditional(std::uint64_t pc, bool taken)
    {
        std::uint64_t youngest = 0;
        for (unsigned j = 0; j < k; ++j) {
            youngest |= bit(history, j) << j;
        }
        const Pair pair{pc >> 2, youngest};
        ++references;
        for (std::size_t i = 0; i < meters.size(); ++i) {
            const std::uint64_t slot = hashSlot(
                meters[i].hash, pc, history, meters[i].indexBits, k);
            aliased[i] += tables[i].reference(slot, pair) ? 1 : 0;
        }
        lruMisses += lru.reference(pair) ? 1 : 0;
        firstReferences += seen.insert(pair).second ? 1 : 0;
        history = (history << 1) | (taken ? 1 : 0);
    }

    /** An unconditional branch: the history records it as taken. */
    void unconditional() { history = (history << 1) | 1; }

    /** Dynamic conditional branches seen. */
    std::uint64_t references = 0;
    /** Per meter: references that aliased in its tagged table. */
    std::vector<std::uint64_t> aliased;
    /** References that missed the LRU table. */
    std::uint64_t lruMisses = 0;
    /** References to a pair never referenced before. */
    std::uint64_t firstReferences = 0;

  private:
    std::vector<Meter> meters;
    unsigned k;
    std::vector<TaggedTable> tables;
    LruTable lru;
    std::set<Pair> seen;
    std::uint64_t history = 0;
};

} // namespace paper
