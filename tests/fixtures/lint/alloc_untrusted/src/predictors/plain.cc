#include <cstdint>
#include <vector>

// No snapshot decoder here, and not an input layer: a plain
// reserve() needs no annotation.
std::vector<std::uint64_t>
make(std::size_t entries)
{
    std::vector<std::uint64_t> keys;
    keys.reserve(entries);
    return keys;
}
