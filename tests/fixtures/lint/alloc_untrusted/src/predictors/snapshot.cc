#include <cstdint>
#include <istream>
#include <vector>

std::uint64_t readCount(std::istream &is);

struct Table
{
    void loadState(std::istream &is);
    void grow(std::size_t entries);
    std::vector<std::uint64_t> keys;
};

void
Table::loadState(std::istream &is)
{
    // A snapshot decoder sizing from its saved count: flagged.
    keys.reserve(readCount(is));
}

void
Table::grow(std::size_t entries)
{
    // bp_lint: allow(reserve-untrusted): the caller's own size.
    keys.resize(entries);
}
