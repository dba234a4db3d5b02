/**
 * @file
 * LRU cache of live per-tenant predictors with checkpoint spill.
 *
 * A serving shard owns many more tenants than it can afford to keep
 * as live predictor tables. The TenantCache keeps the hot set
 * resident and checkpoints the rest through the framed BPS1
 * snapshot path (predictors/predictor.hh): eviction serializes the
 * predictor with savePredictorState() into an in-memory buffer (or
 * a spill file when a spill directory is configured) and the next
 * acquire() restores it with loadPredictorState(). Because BPS1
 * round-trips are byte-exact, a tenant that has been evicted and
 * restored any number of times is bit-identical to one that stayed
 * resident the whole time — the serving isolation invariant that
 * test_serve checks at pool scale.
 *
 * The evict/restore cycle reuses instead of rebuilding: a restore
 * decodes the checkpoint in place into one spare predictor (the last
 * victim's object, or a factory-built one the first time), and saves
 * and spill reads go through one reused scratch buffer. The spare
 * stays private until its load succeeds, so a corrupt checkpoint
 * still leaves the cache unchanged.
 *
 * Not thread-safe: a cache belongs to exactly one pool shard, which
 * serializes access (see serve/predictor_pool.hh).
 */

#pragma once

#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "predictors/predictor.hh"
#include "sim/factory.hh"
#include "support/stats.hh"

namespace bpred
{

/** Tallies of cache traffic since construction. */
struct TenantCacheCounters
{
    /** acquire() calls answered by a resident predictor. */
    u64 hits = 0;

    /** Fresh predictors built for first-seen tenants. */
    u64 constructions = 0;

    /** Residents checkpointed to make room (or by force). */
    u64 evictions = 0;

    /** Checkpoints restored back into residency. */
    u64 restores = 0;

    /** Evictions whose checkpoint went to a spill file. */
    u64 spills = 0;
};

/**
 * LRU-of-predictors keyed by tenant id, bounded by a residency
 * capacity; overflow tenants live as BPS1 checkpoint buffers.
 */
class TenantCache
{
  public:
    struct Options
    {
        /** Maximum resident predictors (> 0). */
        std::size_t capacity = 64;

        /**
         * When non-empty, eviction checkpoints are written to
         * "<spillDir>/tenant-<id>.bps1" instead of being held in
         * memory. The directory is created on first spill.
         */
        std::string spillDir;
    };

    /**
     * @param spec Parsed predictor spec every tenant is built from
     *        (one pool serves one configuration).
     * @throws FatalError when capacity is zero.
     */
    TenantCache(PredictorSpec spec, Options options);

    TenantCache(const TenantCache &) = delete;
    TenantCache &operator=(const TenantCache &) = delete;

    /**
     * The resident predictor for @p tenant, constructing a fresh
     * one on first sight or restoring the checkpoint left by a
     * prior eviction. May evict the least-recently-used resident
     * tenant first; residency never exceeds capacity, even
     * transiently during a restore.
     *
     * The reference stays valid until the next acquire()/evict()
     * call touching this cache.
     *
     * @throws FatalError when a checkpoint fails validation (the
     *         cache state is left unchanged).
     */
    Predictor &acquire(u64 tenant);

    /**
     * Checkpoint @p tenant out of residency now.
     *
     * @return True when the tenant was resident (and is now a
     *         checkpoint); false when it was already cold or has
     *         never been seen.
     */
    bool evict(u64 tenant);

    /** Checkpoint every resident tenant. */
    void evictAll();

    /**
     * The framed BPS1 snapshot bytes of @p tenant in its current
     * state, regardless of residency (residency is unchanged).
     *
     * @throws FatalError for a tenant this cache has never seen.
     */
    std::string exportTenant(u64 tenant) const;

    /**
     * Validate @p bytes as a BPS1 snapshot for this cache's spec
     * and adopt it as @p tenant's state, replacing any existing
     * state. The tenant becomes resident (evicting to make room).
     *
     * @throws FatalError on a corrupt or truncated buffer, or a
     *         configuration-fingerprint mismatch; the cache state
     *         is left unchanged.
     */
    void importTenant(u64 tenant, const std::string &bytes);

    /** Currently resident predictors. */
    std::size_t resident() const { return residents.size(); }

    /** Residency bound. */
    std::size_t capacity() const { return capacity_; }

    /** Distinct tenants this cache has state for. */
    std::size_t knownTenants() const;

    /** True when @p tenant currently has a live predictor. */
    bool isResident(u64 tenant) const;

    /** Bytes held in in-memory checkpoints (spilled ones excluded). */
    u64 checkpointBytes() const { return checkpointBytes_; }

    /** Traffic tallies since construction. */
    const TenantCacheCounters &counters() const { return counters_; }

    /** Checkpoint-save wall time per eviction, in microseconds. */
    const Histogram &saveLatencyUs() const { return saveLatency; }

    /** Checkpoint-restore wall time per revival, in microseconds. */
    const Histogram &restoreLatencyUs() const { return restoreLatency; }

    /** The spec tenants are built from. */
    const PredictorSpec &spec() const { return spec_; }

  private:
    struct Resident
    {
        std::unique_ptr<Predictor> predictor;
        std::list<u64>::iterator lruIt;
    };

    /** Evict LRU residents until one slot is free. */
    void makeRoom();

    /** Checkpoint one resident entry (must exist). */
    void evictResident(u64 tenant);

    /** Path of @p tenant's spill file. */
    std::string spillPath(u64 tenant) const;

    /**
     * The checkpoint bytes of an evicted tenant: a view of its
     * in-memory buffer, or of its spill file read into scratch.
     */
    std::string_view checkpointOf(u64 tenant);

    /** Read @p tenant's spill file into @p out. */
    void readSpill(u64 tenant, std::string &out) const;

    /** Drop @p tenant's checkpoint (buffer or spill file), if any. */
    void dropCheckpoint(u64 tenant);

    /**
     * Load @p bytes into the spare predictor (built on first use)
     * and hand it over; on a throw the spare stays the cache's.
     */
    std::unique_ptr<Predictor> restoreIntoSpare(std::string_view bytes);

    /** Insert an already-validated predictor as resident MRU. */
    Predictor &install(u64 tenant,
                       std::unique_ptr<Predictor> predictor);

    PredictorSpec spec_;
    std::size_t capacity_;
    std::string spillDir;

    std::unordered_map<u64, Resident> residents;
    /** Front = most recently used. */
    std::list<u64> lru;

    /** Evicted tenants held in memory (when not spilling). */
    std::unordered_map<u64, std::string> checkpoints;

    /** Evicted tenants whose checkpoint lives in a spill file. */
    std::unordered_set<u64> spilledTenants;

    /** The last victim's predictor, reused by the next restore. */
    std::unique_ptr<Predictor> spare;

    /** Snapshot bytes on their way out of a save or in from disk. */
    std::string scratch;

    TenantCacheCounters counters_;
    Histogram saveLatency;
    Histogram restoreLatency;
    u64 checkpointBytes_ = 0;
    bool spillDirReady = false;
};

} // namespace bpred
