#include "serve/tenant_cache.hh"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "support/logging.hh"
#include "support/serialize.hh"

namespace bpred
{

namespace
{

using SteadyClock = std::chrono::steady_clock;

u64
elapsedUs(SteadyClock::time_point since)
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            SteadyClock::now() - since)
            .count());
}

} // namespace

TenantCache::TenantCache(PredictorSpec spec, Options options)
    : spec_(std::move(spec)),
      capacity_(options.capacity),
      spillDir(std::move(options.spillDir))
{
    if (capacity_ == 0) {
        fatal("tenant cache: zero capacity");
    }
}

Predictor &
TenantCache::acquire(u64 tenant)
{
    const auto it = residents.find(tenant);
    if (it != residents.end()) {
        // Touch to MRU.
        lru.splice(lru.begin(), lru, it->second.lruIt);
        ++counters_.hits;
        return *it->second.predictor;
    }

    const bool has_checkpoint = checkpoints.count(tenant) != 0 ||
        spilledTenants.count(tenant) != 0;
    if (!has_checkpoint) {
        makeRoom();
        ++counters_.constructions;
        return install(tenant, makePredictor(spec_));
    }

    // Restore: validate the checkpoint into the private spare
    // before touching any cache state, so a corrupt buffer leaves
    // the cache exactly as it was.
    const auto started = SteadyClock::now();
    std::unique_ptr<Predictor> predictor =
        restoreIntoSpare(checkpointOf(tenant));

    // Eviction may insert into the checkpoint map, so the restored
    // tenant's entry is looked up again only afterwards.
    makeRoom();
    dropCheckpoint(tenant);
    ++counters_.restores;
    restoreLatency.sample(elapsedUs(started));
    return install(tenant, std::move(predictor));
}

bool
TenantCache::evict(u64 tenant)
{
    if (residents.count(tenant) == 0) {
        return false;
    }
    evictResident(tenant);
    return true;
}

void
TenantCache::evictAll()
{
    while (!lru.empty()) {
        evictResident(lru.back());
    }
}

std::string
TenantCache::exportTenant(u64 tenant) const
{
    std::string bytes;
    const auto it = residents.find(tenant);
    if (it != residents.end()) {
        savePredictorState(*it->second.predictor, bytes);
        return bytes;
    }
    const auto memory_it = checkpoints.find(tenant);
    if (memory_it != checkpoints.end()) {
        return memory_it->second;
    }
    if (spilledTenants.count(tenant) != 0) {
        readSpill(tenant, bytes);
        return bytes;
    }
    fatal("tenant cache: export of unknown tenant " +
          std::to_string(tenant));
}

void
TenantCache::importTenant(u64 tenant, const std::string &bytes)
{
    // Validate first; only adopt state the current spec accepts.
    std::unique_ptr<Predictor> predictor = restoreIntoSpare(bytes);

    // Drop whatever state the tenant had before.
    const auto it = residents.find(tenant);
    if (it != residents.end()) {
        lru.erase(it->second.lruIt);
        spare = std::move(it->second.predictor);
        residents.erase(it);
    }
    dropCheckpoint(tenant);

    makeRoom();
    install(tenant, std::move(predictor));
}

std::size_t
TenantCache::knownTenants() const
{
    return residents.size() + checkpoints.size() +
        spilledTenants.size();
}

bool
TenantCache::isResident(u64 tenant) const
{
    return residents.count(tenant) != 0;
}

void
TenantCache::makeRoom()
{
    while (residents.size() >= capacity_) {
        evictResident(lru.back());
    }
}

void
TenantCache::evictResident(u64 tenant)
{
    const auto it = residents.find(tenant);
    assert(it != residents.end());

    const auto started = SteadyClock::now();
    savePredictorState(*it->second.predictor, scratch);
    if (!spillDir.empty()) {
        if (!spillDirReady) {
            std::error_code error;
            std::filesystem::create_directories(spillDir, error);
            if (error) {
                fatal("tenant cache: cannot create spill dir '" +
                      spillDir + "': " + error.message());
            }
            spillDirReady = true;
        }
        const std::string path = spillPath(tenant);
        if (!writeFileBytes(path, scratch)) {
            fatal("tenant cache: cannot write spill file '" + path +
                  "'");
        }
        spilledTenants.insert(tenant);
        ++counters_.spills;
    } else {
        // A copy sized to the snapshot: the scratch buffer's growth
        // slack would otherwise be held by every checkpoint.
        checkpointBytes_ += scratch.size();
        checkpoints.emplace(tenant, scratch);
    }

    lru.erase(it->second.lruIt);
    spare = std::move(it->second.predictor);
    residents.erase(it);
    ++counters_.evictions;
    saveLatency.sample(elapsedUs(started));
}

std::string
TenantCache::spillPath(u64 tenant) const
{
    return spillDir + "/tenant-" + std::to_string(tenant) + ".bps1";
}

std::string_view
TenantCache::checkpointOf(u64 tenant)
{
    const auto it = checkpoints.find(tenant);
    if (it != checkpoints.end()) {
        return it->second;
    }
    readSpill(tenant, scratch);
    return scratch;
}

void
TenantCache::readSpill(u64 tenant, std::string &out) const
{
    const std::string path = spillPath(tenant);
    if (!readFileInto(path, out)) {
        fatal("tenant cache: cannot read spill file '" + path + "'");
    }
}

void
TenantCache::dropCheckpoint(u64 tenant)
{
    const auto it = checkpoints.find(tenant);
    if (it != checkpoints.end()) {
        checkpointBytes_ -= it->second.size();
        checkpoints.erase(it);
    } else if (spilledTenants.erase(tenant) != 0) {
        std::remove(spillPath(tenant).c_str());
    }
}

std::unique_ptr<Predictor>
TenantCache::restoreIntoSpare(std::string_view bytes)
{
    if (!spare) {
        spare = makePredictor(spec_);
    }
    loadPredictorState(*spare, bytes);
    return std::move(spare);
}

Predictor &
TenantCache::install(u64 tenant,
                     std::unique_ptr<Predictor> predictor)
{
    lru.push_front(tenant);
    Resident entry;
    entry.predictor = std::move(predictor);
    entry.lruIt = lru.begin();
    Predictor &result = *entry.predictor;
    residents.emplace(tenant, std::move(entry));
    return result;
}

} // namespace bpred
