#include "aliasing/stack_distance.hh"

#include <cassert>

namespace bpred
{

StackDistanceTracker::StackDistanceTracker()
{
    tree.resize(1024, 0);
}

void
StackDistanceTracker::growTo(u64 position)
{
    if (position < tree.size()) {
        return;
    }
    u64 new_size = tree.size();
    while (position >= new_size) {
        new_size *= 2;
    }
    // Every resident mark is the most-recent timestamp of some key
    // in lastUse, so the tree can be rebuilt directly from the map.
    tree.assign(new_size, 0);
    lastUse.forEach([this](u64, u64 time) { fenwickAdd(time, +1); });
}

void
StackDistanceTracker::fenwickAdd(u64 position, i64 delta)
{
    assert(position >= 1);
    for (u64 i = position; i < tree.size(); i += i & (~i + 1)) {
        tree[i] += delta;
    }
}

i64
StackDistanceTracker::fenwickPrefixSum(u64 position) const
{
    i64 sum = 0;
    for (u64 i = position; i >= 1; i -= i & (~i + 1)) {
        sum += tree[i];
    }
    return sum;
}

u64
StackDistanceTracker::reference(u64 key)
{
    ++clock;
    growTo(clock);

    auto [last, first_reference] = lastUse.tryEmplace(key);
    u64 distance = infiniteDistance;
    if (!first_reference) {
        // Distinct keys referenced strictly after `last`: one mark
        // per resident key, minus those at or before it.
        const i64 resident = static_cast<i64>(lastUse.size());
        const i64 at_or_before = fenwickPrefixSum(last);
        distance = static_cast<u64>(resident - at_or_before);
        fenwickAdd(last, -1);
    }
    last = clock;
    fenwickAdd(clock, +1);
    return distance;
}

void
StackDistanceTracker::reset()
{
    tree.assign(1024, 0);
    lastUse.clear();
    clock = 0;
}

} // namespace bpred
