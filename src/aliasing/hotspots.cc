#include "aliasing/hotspots.hh"

#include <algorithm>
#include <unordered_map>

#include "predictors/history.hh"
#include "predictors/info_vector.hh"

namespace bpred
{

std::vector<ConflictHotspot>
findConflictHotspots(const Trace &trace, const IndexFunction &function,
                     std::size_t top_k)
{
    struct EntryState
    {
        u64 lastKey = 0;
        bool valid = false;
        u64 conflicts = 0;
        std::unordered_map<u64, u64> users;
    };

    const ResolvedIndex index_of = function.resolve();
    std::unordered_map<u64, EntryState> entries;
    GlobalHistory history;

    for (const BranchRecord &record : trace) {
        if (!record.conditional) {
            history.shiftIn(true);
            continue;
        }
        const u64 key = packInfoVector(record.pc, history.raw(),
                                       function.historyBits);
        const u64 index = index_of(record.pc, history.raw());
        EntryState &entry = entries[index];
        if (entry.valid && entry.lastKey != key) {
            ++entry.conflicts;
        }
        entry.lastKey = key;
        entry.valid = true;
        ++entry.users[key];
        history.shiftIn(record.taken);
    }

    std::vector<ConflictHotspot> hotspots;
    hotspots.reserve(entries.size());
    for (const auto &[index, entry] : entries) {
        if (entry.conflicts == 0) {
            continue;
        }
        ConflictHotspot hotspot;
        hotspot.index = index;
        hotspot.conflicts = entry.conflicts;
        hotspot.distinctUsers = entry.users.size();
        for (const auto &[user, count] : entry.users) {
            if (count > hotspot.topUserCount) {
                hotspot.secondUser = hotspot.topUser;
                hotspot.secondUserCount = hotspot.topUserCount;
                hotspot.topUser = user;
                hotspot.topUserCount = count;
            } else if (count > hotspot.secondUserCount) {
                hotspot.secondUser = user;
                hotspot.secondUserCount = count;
            }
        }
        hotspots.push_back(hotspot);
    }

    std::sort(hotspots.begin(), hotspots.end(),
              [](const ConflictHotspot &a, const ConflictHotspot &b) {
                  if (a.conflicts != b.conflicts) {
                      return a.conflicts > b.conflicts;
                  }
                  return a.index < b.index;
              });
    if (hotspots.size() > top_k) {
        hotspots.resize(top_k);
    }
    return hotspots;
}

} // namespace bpred
