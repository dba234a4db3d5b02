#include "support/topk.hh"

#include <algorithm>
#include <unordered_map>

#include "support/logging.hh"

namespace bpred
{

TopKCounter::TopKCounter(std::size_t capacity) : capacity_(capacity)
{
    if (capacity == 0) {
        fatal("TopKCounter: capacity must be positive");
    }
    std::unordered_map<u64, Slot> model;
    model.reserve(capacity);
    buckets = model.bucket_count();
    slots.reserve(capacity);
}

void
TopKCounter::add(u64 key, u64 weight)
{
    total += weight;
    const std::size_t n = slots.size();
    for (Slot &tracked : slots) {
        if (tracked.key == key) {
            tracked.count += weight;
            return;
        }
    }
    Slot slot{key, weight, 0, key % buckets};
    // The position the new key vacates: a fresh one at the end while
    // growing; when full, the space-saving victim — the smallest
    // slot, first in tie-break order among equal minima — whose
    // count the new key inherits as an overcount bound.
    std::size_t hole = n;
    if (n == capacity_) {
        u64 floor = slots[0].count;
        for (const Slot &tracked : slots) {
            floor = std::min(floor, tracked.count);
        }
        hole = 0;
        while (slots[hole].count != floor) {
            ++hole;
        }
        slot.count += floor;
        slot.overcount = floor;
    } else {
        slots.emplace_back();
    }
    // The new key goes first in its bucket's run, or opens a new run
    // at the front; the slots between it and the hole shift by one.
    std::size_t pos = 0;
    while (pos < n &&
           (pos == hole || slots[pos].bucket != slot.bucket)) {
        ++pos;
    }
    Slot *const base = slots.data();
    if (pos == n) {
        pos = 0;
    }
    if (pos <= hole) {
        std::move_backward(base + pos, base + hole, base + hole + 1);
        base[pos] = slot;
    } else {
        // pos indexes the order before the victim left: close the
        // hole, then the run starts one position earlier.
        std::move(base + hole + 1, base + pos, base + hole);
        base[pos - 1] = slot;
    }
}

std::vector<TopKCounter::Item>
TopKCounter::items() const
{
    std::vector<Item> result;
    result.reserve(slots.size());
    for (const Slot &slot : slots) {
        result.push_back({slot.key, slot.count, slot.overcount});
    }
    std::sort(result.begin(), result.end(),
              [](const Item &a, const Item &b) {
                  return a.count != b.count ? a.count > b.count
                                            : a.key < b.key;
              });
    return result;
}

void
TopKCounter::reset()
{
    slots.clear();
    total = 0;
}

} // namespace bpred
