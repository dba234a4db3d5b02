#include "aliasing/tagged_table.hh"

#include <algorithm>
#include <cassert>

namespace bpred
{

TaggedDirectMappedTable::TaggedDirectMappedTable(unsigned index_bits)
    : tags(u64(1) << index_bits, emptyTag), indexBits(index_bits)
{
    assert(index_bits >= 1 && index_bits <= 28);
}

void
TaggedDirectMappedTable::reset()
{
    std::fill(tags.begin(), tags.end(), emptyTag);
    emptyTagHolders.clear();
    aliasStat.reset();
}

bool
TaggedDirectMappedTable::listed(u64 index) const
{
    return std::find(emptyTagHolders.begin(), emptyTagHolders.end(),
                     index) != emptyTagHolders.end();
}

bool
TaggedDirectMappedTable::referenceEmptyTag(u64 index)
{
    // A listed entry that still reads emptyTag holds it; any other
    // entry reading emptyTag was never referenced.
    const bool was_listed = listed(index);
    const bool miss = tags[index] != emptyTag || !was_listed;
    if (!was_listed) {
        emptyTagHolders.push_back(index);
    }
    tags[index] = emptyTag;
    return miss;
}

} // namespace bpred
