#include "support/serialize.hh"

#include <cstdio>
#include <cstring>
#include <memory>

#include "support/logging.hh"

namespace bpred
{

void
ByteWriter::putU16(u16 value)
{
    const char bytes[2] = {static_cast<char>(value & 0xff),
                           static_cast<char>((value >> 8) & 0xff)};
    out.append(bytes, sizeof(bytes));
}

void
ByteWriter::putU64(u64 value)
{
    char bytes[8];
    for (unsigned i = 0; i < 8; ++i) {
        bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
    }
    out.append(bytes, sizeof(bytes));
}

void
ByteWriter::putString(std::string_view value)
{
    putU64(value.size());
    out.append(value);
}

u8 *
ByteWriter::grow(std::size_t size)
{
    const std::size_t at = out.size();
    out.resize(at + size);
    return reinterpret_cast<u8 *>(out.data() + at);
}

const u8 *
ByteReader::take(std::size_t size)
{
    if (size > remaining()) {
        fatal("serialize: truncated stream");
    }
    const u8 *data = reinterpret_cast<const u8 *>(bytes.data() + at);
    at += size;
    return data;
}

u16
ByteReader::getU16()
{
    const u8 *data = take(2);
    return static_cast<u16>(data[0] | (data[1] << 8));
}

u64
ByteReader::getU64()
{
    const u8 *data = take(8);
    u64 value = 0;
    for (unsigned i = 0; i < 8; ++i) {
        value |= static_cast<u64>(data[i]) << (8 * i);
    }
    return value;
}

void
ByteReader::getBytes(void *data, std::size_t size)
{
    const u8 *source = take(size);
    if (size > 0) {
        std::memcpy(data, source, size);
    }
}

std::string_view
ByteReader::getString(std::size_t max_length)
{
    const u64 length = getU64();
    if (length > max_length) {
        fatal("serialize: unreasonable string length");
    }
    const std::size_t size = static_cast<std::size_t>(length);
    return {reinterpret_cast<const char *>(take(size)), size};
}

namespace
{

struct FileCloser
{
    void operator()(std::FILE *file) const { std::fclose(file); }
};

} // namespace

bool
readFileInto(const std::string &path, std::string &out)
{
    const std::unique_ptr<std::FILE, FileCloser> file(
        std::fopen(path.c_str(), "rb"));
    if (!file) {
        return false;
    }
    constexpr std::size_t chunk = 64 * 1024;
    out.clear();
    for (;;) {
        const std::size_t at = out.size();
        out.resize(at + chunk);
        const std::size_t got =
            std::fread(out.data() + at, 1, chunk, file.get());
        out.resize(at + got);
        if (got < chunk) {
            return std::ferror(file.get()) == 0;
        }
    }
}

bool
writeFileBytes(const std::string &path, std::string_view bytes)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file) {
        return false;
    }
    const bool written =
        std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
    return (std::fclose(file) == 0) && written;
}

} // namespace bpred
