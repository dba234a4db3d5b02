#include "support/site_table.hh"

#include <utility>

namespace bpred
{

void
SiteTable::grow()
{
    constexpr std::size_t initialSlots = 1024;
    std::vector<Slot> old = std::move(slots);
    const std::size_t capacity =
        old.empty() ? initialSlots : old.size() * 2;
    slots.assign(capacity, Slot());
    shift = 64;
    for (std::size_t n = capacity; n > 1; n >>= 1) {
        --shift;
    }
    for (const Slot &slot : old) {
        if (slot.pc == emptyPc) {
            continue;
        }
        std::size_t i = home(slot.pc);
        while (slots[i].pc != emptyPc) {
            i = (i + 1) & (capacity - 1);
        }
        slots[i] = slot;
    }
}

} // namespace bpred
