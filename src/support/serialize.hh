/**
 * @file
 * Span-based binary serialization: one writer, one reader.
 *
 * Shared by the predictor snapshot machinery (see
 * predictors/predictor.hh) and any other component that persists
 * state. All integers are fixed-width little-endian regardless of
 * host byte order. The writer appends to a caller-owned
 * std::string, so a buffer reused across saves keeps its capacity
 * and a steady-state save allocates nothing; the reader walks a
 * std::string_view in place and throws FatalError on truncation, so
 * a corrupt checkpoint surfaces as a user error, never as silent
 * garbage state or an out-of-bounds read.
 */

#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "support/types.hh"

namespace bpred
{

/** Appends little-endian fields to a caller-owned byte buffer. */
class ByteWriter
{
  public:
    /** Append to @p out (existing contents are kept). */
    explicit ByteWriter(std::string &out) : out(out) {}

    /** Write one byte. */
    void putU8(u8 value) { out.push_back(static_cast<char>(value)); }

    /** Write a u16 as 2 little-endian bytes. */
    void putU16(u16 value);

    /** Write a u64 as 8 little-endian bytes. */
    void putU64(u64 value);

    /** Write @p size raw bytes. */
    void
    putBytes(const void *data, std::size_t size)
    {
        out.append(static_cast<const char *>(data), size);
    }

    /** Write a length-prefixed string (u64 length + bytes). */
    void putString(std::string_view value);

    /**
     * Append @p size bytes for the caller to fill in place (bulk
     * encoders write straight into the buffer); the pointer is
     * valid until the next write.
     */
    u8 *grow(std::size_t size);

  private:
    std::string &out;
};

/**
 * Bounds-checked little-endian reads over a borrowed byte span.
 * Every read that would run past the end throws FatalError
 * ("serialize: truncated stream") and consumes nothing.
 */
class ByteReader
{
  public:
    /** Read @p bytes, which must outlive the reader. */
    explicit ByteReader(std::string_view bytes) : bytes(bytes) {}

    /** Read one byte. */
    u8 getU8() { return *take(1); }

    /** Read a little-endian u16. */
    u16 getU16();

    /** Read a little-endian u64. */
    u64 getU64();

    /** Read exactly @p size raw bytes into @p data. */
    void getBytes(void *data, std::size_t size);

    /**
     * Read a length-prefixed string as a view into the span.
     *
     * @param max_length Sanity cap on the declared length.
     * @throws FatalError on truncation or an unreasonable length.
     */
    std::string_view getString(std::size_t max_length = 4096);

    /**
     * Consume @p size bytes and return a pointer to them in the
     * span (bulk decoders read them in place).
     */
    const u8 *take(std::size_t size);

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return bytes.size() - at; }

    /** True once every byte has been consumed. */
    bool atEnd() const { return at == bytes.size(); }

  private:
    std::string_view bytes;
    std::size_t at = 0;
};

/**
 * Replace @p out with the whole contents of the file at @p path,
 * reusing @p out's capacity.
 *
 * @return False when the file cannot be opened or read.
 */
bool readFileInto(const std::string &path, std::string &out);

/**
 * Create or truncate the file at @p path and write @p bytes to it.
 *
 * @return False on any open, write or close failure.
 */
bool writeFileBytes(const std::string &path, std::string_view bytes);

} // namespace bpred
