/**
 * @file
 * Tests for the multi-tenant serving layer (src/serve).
 *
 * The load-bearing invariant: a tenant served through a
 * PredictorPool — batched, sharded, LRU-evicted and restored from
 * BPS1 checkpoints along the way — must end bit-identical to the
 * same record stream fed to a dedicated SimSession, for every
 * registered scheme. Plus TenantCache edge cases: capacity-1
 * thrash, evict-during-restore residency, corrupt checkpoint
 * rejection, cross-scheme fingerprint mismatches, and disk spill.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/predictor_pool.hh"
#include "serve/serve_stats.hh"
#include "serve/tenant_cache.hh"
#include "sim/factory.hh"
#include "sim/session.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "trace/trace.hh"

namespace bpred
{
namespace
{

/** A deterministic per-tenant branch stream. */
Trace
tenantTrace(u64 tenant, int records)
{
    Trace trace("tenant-" + std::to_string(tenant));
    Rng rng(0x5eed + tenant * 977);
    for (int i = 0; i < records; ++i) {
        const Addr pc = 0x4000 + 4 * rng.uniformInt(300);
        if (rng.chance(0.15)) {
            trace.appendUnconditional(pc + 0x40000);
        } else {
            const bool outcome = (pc >> 2) % 3 == 0
                ? rng.chance(0.8)
                : (i & 1) != 0;
            trace.appendConditional(pc, outcome);
        }
    }
    return trace;
}

/**
 * A deliberately small configuration per scheme, so 5 tenants x 16
 * schemes x several pool shapes stay fast while still exercising
 * real table state. Fails loudly when a new scheme is registered
 * without a small spec here.
 */
std::string
smallSpec(const std::string &scheme)
{
    static const std::map<std::string, std::string> specs = {
        {"static", "static:taken"},
        {"bimodal", "bimodal:8"},
        {"gshare", "gshare:8:6"},
        {"gselect", "gselect:8:4"},
        {"pag", "pag:6:6"},
        {"agree", "agree:8:6:8"},
        {"bimode", "bimode:8:6:8"},
        {"yags", "yags:7:6:8"},
        {"hybrid", "hybrid:8:6"},
        {"gskewed", "gskewed:3:7:6"},
        {"egskew", "egskew:7:6"},
        {"gskewedsh", "gskewedsh:3:7:6"},
        {"egskewsh", "egskewsh:7:6"},
        {"pskew", "pskew:6:6:3:7"},
        {"falru", "falru:64:4"},
        {"unaliased", "unaliased:6"},
    };
    const auto it = specs.find(scheme);
    if (it == specs.end()) {
        ADD_FAILURE() << "no small spec for scheme " << scheme;
        return "bimodal:8";
    }
    return it->second;
}

/** Dedicated-predictor reference: result + final snapshot bytes. */
struct Reference
{
    SimResult result;
    std::string snapshot;
};

Reference
dedicatedReference(const std::string &spec, const Trace &trace)
{
    auto predictor = makePredictor(spec);
    SimSession session(*predictor, SimOptions(), trace.name());
    session.feed(trace);
    Reference reference;
    reference.result = session.finish();
    savePredictorState(*predictor, reference.snapshot);
    return reference;
}

TEST(PredictorPool, PooledTenantsMatchDedicatedSessions)
{
    constexpr u64 numTenants = 5;

    for (const SchemeInfo &scheme : listSchemes()) {
        const std::string spec = smallSpec(scheme.name);
        for (const unsigned shards : {1u, 4u}) {
            for (const std::size_t batch :
                 {std::size_t(1), std::size_t(7),
                  std::size_t(8192)}) {
                SCOPED_TRACE(spec + " shards=" +
                             std::to_string(shards) + " batch=" +
                             std::to_string(batch));

                // Enough records that every batch size needs
                // several requests; multi-block requests are
                // exercised by a block size under the batch.
                const int records = batch == 1 ? 400
                    : batch == 7               ? 1400
                                               : 12000;
                std::vector<Trace> traces;
                for (u64 tenant = 0; tenant < numTenants; ++tenant) {
                    traces.push_back(tenantTrace(tenant, records));
                }

                PredictorPool::Options options;
                options.shards = shards;
                options.tenantCapacity = 2; // < tenants: thrash
                options.blockRecords = 1000;
                PredictorPool pool(parseSpec(spec), options);

                // Interleave the tenants' streams request by
                // request, as concurrent clients would.
                // Midpoint rounded to a request boundary, but at
                // least one request so the forced evict below
                // always has live tenants to checkpoint.
                const std::size_t half = std::max(
                    batch, traces[0].size() / batch / 2 * batch);
                const auto feedRange = [&](std::size_t from,
                                           std::size_t to) {
                    for (std::size_t offset = from; offset < to;
                         offset += batch) {
                        for (u64 tenant = 0; tenant < numTenants;
                             ++tenant) {
                            const Trace &trace = traces[tenant];
                            if (offset >= trace.size()) {
                                continue;
                            }
                            PredictRequest request;
                            request.tenant = tenant;
                            request.records =
                                trace.records().data() + offset;
                            request.count = std::min(
                                batch, trace.size() - offset);
                            pool.submit(request);
                        }
                    }
                };

                feedRange(0, half);
                pool.drain();
                // Force at least one checkpoint cycle per tenant.
                for (u64 tenant = 0; tenant < numTenants; ++tenant) {
                    pool.evictTenant(tenant);
                }
                feedRange(half, traces[0].size());
                pool.drain();

                const PoolCounters counters = pool.counters();
                EXPECT_GE(counters.cache.evictions, numTenants);
                EXPECT_GE(counters.cache.restores, numTenants);
                EXPECT_LE(counters.residentTenants,
                          std::size_t(2) * shards);

                for (u64 tenant = 0; tenant < numTenants; ++tenant) {
                    SCOPED_TRACE("tenant " + std::to_string(tenant));
                    const Reference want =
                        dedicatedReference(spec, traces[tenant]);
                    const TenantSummary got =
                        pool.tenantSummary(tenant);
                    EXPECT_EQ(got.conditionals,
                              want.result.conditionals);
                    EXPECT_EQ(got.mispredicts,
                              want.result.mispredicts);
                    EXPECT_EQ(pool.exportTenant(tenant),
                              want.snapshot);
                }
            }
        }
    }
}

TEST(PredictorPool, ImportedStateContinuesExactly)
{
    // Export a tenant mid-stream, import it as a different tenant,
    // and serve the second half to both: they must stay identical.
    const Trace trace = tenantTrace(3, 4000);
    const std::size_t half = trace.size() / 2;

    PredictorPool::Options options;
    options.shards = 2;
    PredictorPool pool(parseSpec("gshare:8:6"), options);

    pool.submit({3, trace.records().data(), half});
    pool.drain();
    const std::string snapshot = pool.exportTenant(3);
    pool.importTenant(17, snapshot);

    pool.submit({3, trace.records().data() + half,
                 trace.size() - half});
    pool.submit({17, trace.records().data() + half,
                 trace.size() - half});
    pool.drain();

    EXPECT_EQ(pool.exportTenant(3), pool.exportTenant(17));
}

TEST(PredictorPool, RejectsMalformedRequests)
{
    PredictorPool pool(parseSpec("bimodal:8"),
                       PredictorPool::Options{});
    EXPECT_THROW(pool.submit({0, nullptr, 4}), FatalError);
    const Trace trace = tenantTrace(0, 8);
    EXPECT_THROW(pool.submit({0, trace.records().data(), 0}),
                 FatalError);
}

TEST(ServeStats, ExportsPoolAndTenantRows)
{
    const Trace trace = tenantTrace(1, 2000);
    PredictorPool::Options options;
    options.tenantCapacity = 1;
    PredictorPool pool(parseSpec("gshare:8:6"), options);
    pool.submit({1, trace.records().data(), trace.size()});
    pool.submit({2, trace.records().data(), trace.size()});
    pool.drain();

    StatRegistry registry;
    exportServeStats(pool, registry, 8);
    EXPECT_EQ(registry.counter("serve.pool.requests"), 2u);
    EXPECT_EQ(registry.counter("serve.pool.records"),
              2 * trace.size());
    EXPECT_EQ(registry.counter("serve.pool.tenants"), 2u);
    EXPECT_TRUE(registry.contains("serve.cache.evictions"));
    EXPECT_TRUE(
        registry.contains("serve.latency.request_us"));
    EXPECT_TRUE(registry.contains("serve.tenant.1.requests"));
    EXPECT_TRUE(registry.contains("serve.tenant.2.mispredict"));

    // The JSON form nests the same data under "serve".
    const std::string json = serveStatsToJson(pool, 0).dump(2);
    EXPECT_NE(json.find("\"serve\""), std::string::npos);
    EXPECT_NE(json.find("\"pool\""), std::string::npos);
}

TEST(TenantCache, CapacityOneThrashStaysExact)
{
    // Two tenants ping-pong through a single residency slot: every
    // switch is an evict + restore, and both must still match
    // dedicated predictors fed the same interleaved streams.
    TenantCache::Options options;
    options.capacity = 1;
    TenantCache cache(parseSpec("gshare:8:6"), options);

    auto dedicated_a = makePredictor("gshare:8:6");
    auto dedicated_b = makePredictor("gshare:8:6");

    Rng rng(99);
    for (int round = 0; round < 200; ++round) {
        const u64 tenant = round % 2;
        Predictor &pooled = cache.acquire(tenant);
        Predictor &reference =
            tenant == 0 ? *dedicated_a : *dedicated_b;
        for (int i = 0; i < 5; ++i) {
            const Addr pc = 0x100 + 4 * rng.uniformInt(50);
            const bool taken = rng.chance(0.7);
            pooled.predict(pc);
            pooled.update(pc, taken);
            reference.predict(pc);
            reference.update(pc, taken);
        }
    }

    EXPECT_GE(cache.counters().evictions, 199u);
    EXPECT_GE(cache.counters().restores, 198u);
    EXPECT_EQ(cache.resident(), 1u);

    std::string want_a;
    savePredictorState(*dedicated_a, want_a);
    EXPECT_EQ(cache.exportTenant(0), want_a);
    std::string want_b;
    savePredictorState(*dedicated_b, want_b);
    EXPECT_EQ(cache.exportTenant(1), want_b);
}

TEST(TenantCache, RestoreEvictsTheLruResidentFirst)
{
    TenantCache::Options options;
    options.capacity = 2;
    TenantCache cache(parseSpec("bimodal:8"), options);

    cache.acquire(1);
    cache.acquire(2);
    cache.acquire(3); // evicts 1 (LRU)
    EXPECT_FALSE(cache.isResident(1));
    EXPECT_TRUE(cache.isResident(2));
    EXPECT_TRUE(cache.isResident(3));

    // Restoring 1 must push out the current LRU (2) and never hold
    // three live predictors.
    cache.acquire(1);
    EXPECT_TRUE(cache.isResident(1));
    EXPECT_FALSE(cache.isResident(2));
    EXPECT_TRUE(cache.isResident(3));
    EXPECT_EQ(cache.resident(), 2u);
    EXPECT_LE(cache.resident(), cache.capacity());
    EXPECT_EQ(cache.knownTenants(), 3u);
}

TEST(TenantCache, RejectsCorruptAndTruncatedCheckpoints)
{
    TenantCache cache(parseSpec("gshare:8:6"),
                      TenantCache::Options{});
    Predictor &predictor = cache.acquire(5);
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
        const Addr pc = 0x200 + 4 * rng.uniformInt(40);
        predictor.predict(pc);
        predictor.update(pc, rng.chance(0.6));
    }
    const std::string good = cache.exportTenant(5);

    // Truncated payload.
    EXPECT_THROW(
        cache.importTenant(5, good.substr(0, good.size() / 2)),
        FatalError);
    // Not a snapshot at all.
    EXPECT_THROW(cache.importTenant(5, "this is not a snapshot"),
                 FatalError);
    // Failed imports leave the tenant's state untouched.
    EXPECT_EQ(cache.exportTenant(5), good);

    // A valid buffer round-trips.
    cache.importTenant(5, good);
    EXPECT_EQ(cache.exportTenant(5), good);
}

TEST(TenantCache, RejectsSnapshotsFromAnotherScheme)
{
    TenantCache gshare_cache(parseSpec("gshare:8:6"),
                             TenantCache::Options{});
    TenantCache egskew_cache(parseSpec("egskew:7:6"),
                             TenantCache::Options{});
    gshare_cache.acquire(1);
    const std::string bytes = gshare_cache.exportTenant(1);
    // The BPS1 name fingerprint catches the scheme mismatch before
    // any table bytes are interpreted.
    EXPECT_THROW(egskew_cache.importTenant(1, bytes), FatalError);
}

TEST(TenantCache, RejectsZeroCapacity)
{
    TenantCache::Options options;
    options.capacity = 0;
    EXPECT_THROW(TenantCache(parseSpec("bimodal:8"), options),
                 FatalError);
}

TEST(TenantCache, SpillsCheckpointsToDisk)
{
    TenantCache::Options options;
    options.capacity = 1;
    options.spillDir =
        ::testing::TempDir() + "bpred_serve_spill_test";
    TenantCache cache(parseSpec("gshare:8:6"), options);

    auto dedicated = makePredictor("gshare:8:6");
    Predictor &pooled = cache.acquire(42);
    Rng rng(13);
    for (int i = 0; i < 300; ++i) {
        const Addr pc = 0x300 + 4 * rng.uniformInt(60);
        const bool taken = rng.chance(0.55);
        pooled.predict(pc);
        pooled.update(pc, taken);
        dedicated->predict(pc);
        dedicated->update(pc, taken);
    }

    cache.acquire(43); // evicts 42 to disk
    EXPECT_EQ(cache.counters().spills, 1u);
    EXPECT_EQ(cache.checkpointBytes(), 0u); // nothing held in memory

    // Restore from the spill file and keep matching the dedicated
    // predictor.
    std::string want;
    savePredictorState(*dedicated, want);
    EXPECT_EQ(cache.exportTenant(42), want);
    Predictor &restored = cache.acquire(42);
    std::string got;
    savePredictorState(restored, got);
    EXPECT_EQ(got, want);
}

TEST(TenantCache, CorruptSpillFileLeavesCacheUnchanged)
{
    TenantCache::Options options;
    options.capacity = 2;
    options.spillDir =
        ::testing::TempDir() + "bpred_serve_corrupt_spill_test";
    std::filesystem::remove_all(options.spillDir);
    const std::string spec = "egskew:7:6";
    TenantCache cache(parseSpec(spec), options);

    std::map<u64, std::unique_ptr<Predictor>> dedicated;
    Rng rng(31);
    const auto serve = [&](u64 tenant) -> Predictor & {
        Predictor &pooled = cache.acquire(tenant);
        auto &reference = dedicated[tenant];
        if (!reference) {
            reference = makePredictor(spec);
        }
        for (int i = 0; i < 200; ++i) {
            const Addr pc = 0x500 + 4 * rng.uniformInt(80);
            const bool taken = rng.chance(0.6);
            pooled.predict(pc);
            pooled.update(pc, taken);
            reference->predict(pc);
            reference->update(pc, taken);
        }
        return pooled;
    };
    const auto snapshot = [](const Predictor &predictor) {
        std::string bytes;
        savePredictorState(predictor, bytes);
        return bytes;
    };

    Predictor *const first = &serve(1);
    serve(2);
    serve(3); // spills tenant 1; its predictor becomes the spare
    ASSERT_EQ(cache.counters().spills, 1u);
    const std::string path =
        options.spillDir + "/tenant-1.bps1";
    std::string good;
    {
        std::ifstream file(path, std::ios::binary);
        good.assign(std::istreambuf_iterator<char>(file),
                    std::istreambuf_iterator<char>());
    }
    ASSERT_EQ(good, snapshot(*dedicated[1]));
    const std::string export_2 = cache.exportTenant(2);
    const std::string export_3 = cache.exportTenant(3);
    const std::size_t known = cache.knownTenants();

    // A 2-bit counter of 0xff in the middle bank cannot load.
    std::string bad = good;
    bad[bad.size() / 2] = static_cast<char>(0xff);
    {
        std::ofstream file(path, std::ios::binary | std::ios::trunc);
        file << bad;
    }
    EXPECT_THROW(cache.acquire(1), FatalError);
    EXPECT_FALSE(cache.isResident(1));
    EXPECT_TRUE(cache.isResident(2));
    EXPECT_TRUE(cache.isResident(3));
    EXPECT_EQ(cache.resident(), 2u);
    EXPECT_EQ(cache.knownTenants(), known);
    EXPECT_EQ(cache.exportTenant(2), export_2);
    EXPECT_EQ(cache.exportTenant(3), export_3);
    EXPECT_EQ(cache.counters().restores, 0u);

    // The next good restore reuses the spare that saw the failed
    // load, and must match the dedicated predictor exactly.
    {
        std::ofstream file(path, std::ios::binary | std::ios::trunc);
        file << good;
    }
    Predictor &restored = serve(1);
    EXPECT_EQ(&restored, first);
    EXPECT_EQ(snapshot(restored), snapshot(*dedicated[1]));
    EXPECT_EQ(cache.counters().restores, 1u);
    for (const u64 tenant : {2u, 3u, 1u}) {
        const Predictor &pooled = serve(tenant);
        EXPECT_EQ(snapshot(pooled), snapshot(*dedicated[tenant]))
            << "tenant " << tenant;
    }
    std::filesystem::remove_all(options.spillDir);
}

} // namespace
} // namespace bpred
