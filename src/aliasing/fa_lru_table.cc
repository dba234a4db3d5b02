#include "aliasing/fa_lru_table.hh"

#include <string>

#include "support/logging.hh"
#include "support/serialize.hh"

namespace bpred
{

FullyAssociativeLruTable::FullyAssociativeLruTable(u64 capacity)
    : capacity_(capacity)
{
    if (capacity == 0 || capacity >= none) {
        fatal("fa-lru table: capacity must be in [1, 2^32 - 2], got " +
              std::to_string(capacity));
    }
}

const u8 *
FullyAssociativeLruTable::peek(u64 key) const
{
    const u32 *node = index.find(key);
    return node == nullptr ? nullptr : &payloads[*node];
}

void
FullyAssociativeLruTable::unlink(u32 n)
{
    const Node &node = nodes[n];
    (node.prev == none ? mru : nodes[node.prev].next) = node.next;
    (node.next == none ? lru : nodes[node.next].prev) = node.prev;
}

void
FullyAssociativeLruTable::pushFront(u32 n)
{
    nodes[n].prev = none;
    nodes[n].next = mru;
    (mru == none ? lru : nodes[mru].prev) = n;
    mru = n;
}

u8 *
FullyAssociativeLruTable::access(u64 key, u8 initial)
{
    if (const u32 *node = index.find(key)) {
        misses.sample(false);
        const u32 n = *node;
        if (n != mru) {
            unlink(n);
            pushFront(n);
        }
        return &payloads[n];
    }

    misses.sample(true);
    u32 n;
    if (nodes.size() < capacity_) {
        n = static_cast<u32>(nodes.size());
        nodes.push_back({key, none, none});
        payloads.push_back(initial);
    } else {
        // Full: the LRU node takes the new key.
        n = lru;
        index.erase(nodes[n].key);
        unlink(n);
        nodes[n].key = key;
        payloads[n] = initial;
    }
    index.at(key) = n;
    pushFront(n);
    return nullptr;
}

void
FullyAssociativeLruTable::reset()
{
    nodes.clear();
    payloads.clear();
    index.clear();
    mru = lru = none;
    misses.reset();
}

void
FullyAssociativeLruTable::saveState(ByteWriter &out) const
{
    out.putU64(capacity_);
    out.putU64(nodes.size());
    for (u32 n = mru; n != none; n = nodes[n].next) {
        out.putU64(nodes[n].key);
        out.putU8(payloads[n]);
    }
    out.putU64(misses.events());
    out.putU64(misses.total());
}

void
FullyAssociativeLruTable::loadState(ByteReader &in)
{
    const u64 stored_capacity = in.getU64();
    if (stored_capacity != capacity_) {
        fatal("fa-lru snapshot: capacity mismatch (stored " +
              std::to_string(stored_capacity) + ", table has " +
              std::to_string(capacity_) + ")");
    }
    const u64 count = in.getU64();
    if (count > capacity_) {
        fatal("fa-lru snapshot: entry count exceeds capacity");
    }
    // Stored MRU first: node i links to i - 1 and i + 1.
    std::vector<Node> restored;
    std::vector<u8> restored_payloads;
    FlatTable<u32> restored_index;
    for (u64 i = 0; i < count; ++i) {
        const u64 key = in.getU64();
        const u8 payload = in.getU8();
        const u32 n = static_cast<u32>(i);
        auto [slot, inserted] = restored_index.tryEmplace(key);
        if (!inserted) {
            fatal("fa-lru snapshot: duplicate key");
        }
        slot = n;
        restored.push_back(
            {key, n == 0 ? none : n - 1, i + 1 == count ? none : n + 1});
        restored_payloads.push_back(payload);
    }
    const u64 miss_events = in.getU64();
    const u64 miss_total = in.getU64();
    if (miss_events > miss_total) {
        fatal("fa-lru snapshot: inconsistent miss tallies");
    }
    nodes = std::move(restored);
    payloads = std::move(restored_payloads);
    index = std::move(restored_index);
    mru = count == 0 ? none : 0;
    lru = count == 0 ? none : static_cast<u32>(count - 1);
    misses.restore(miss_events, miss_total);
}

} // namespace bpred
