#include "trace/bpt_format.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <ostream>

#include "support/logging.hh"

namespace bpred::bpt
{

void
writeVarint(std::ostream &os, u64 value)
{
    while (value >= 0x80) {
        os.put(static_cast<char>((value & 0x7f) | 0x80));
        value >>= 7;
    }
    os.put(static_cast<char>(value));
}

u64
readVarint(const u8 *data, std::size_t size, std::size_t &at)
{
    u64 value = 0;
    unsigned shift = 0;
    for (;;) {
        if (shift >= 64) {
            fatal("trace: varint overflow");
        }
        if (at >= size) {
            fatal("trace: truncated varint");
        }
        const u8 byte = data[at++];
        value |= (static_cast<u64>(byte) & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            return value;
        }
        shift += 7;
    }
}

u64
zigZagEncode(i64 value)
{
    return (static_cast<u64>(value) << 1) ^
        static_cast<u64>(value >> 63);
}

i64
zigZagDecode(u64 value)
{
    return static_cast<i64>(value >> 1) ^ -static_cast<i64>(value & 1);
}

void
writeHeader(std::ostream &os, const std::string &name, u64 count)
{
    os.write(magic, sizeof(magic));
    writeVarint(os, name.size());
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
    writeVarint(os, count);
}

Header
readHeader(const u8 *data, std::size_t size,
           std::size_t &header_bytes)
{
    if (size < sizeof(magic) ||
        !std::equal(magic, magic + sizeof(magic),
                    reinterpret_cast<const char *>(data))) {
        fatal("trace: bad magic (not a BPT1 trace)");
    }
    std::size_t at = sizeof(magic);

    Header header;
    const u64 name_len = readVarint(data, size, at);
    if (name_len > maxNameBytes) {
        fatal("trace: unreasonable name length");
    }
    if (size - at < name_len) {
        fatal("trace: truncated name");
    }
    header.name.assign(reinterpret_cast<const char *>(data) + at,
                       static_cast<std::size_t>(name_len));
    at += static_cast<std::size_t>(name_len);

    header.count = readVarint(data, size, at);
    const std::size_t payload_bytes = size - at;
    if (header.count > payload_bytes / 2) {
        fatal("trace: header declares " +
              std::to_string(header.count) + " records but only " +
              std::to_string(payload_bytes) + " bytes follow");
    }
    header_bytes = at;
    return header;
}

void
writeRecord(std::ostream &os, const BranchRecord &record,
            Addr &last_pc)
{
    // The PC delta is computed in u64 (defined wrap-around) and
    // only then reinterpreted as signed for the zig-zag encoder;
    // subtracting the raw pcs as i64 would be signed-overflow UB
    // for branches more than 2^63 apart, yet produce the same bit
    // pattern everywhere it is defined.
    const i64 delta = static_cast<i64>(record.pc - last_pc);
    const u8 flags = static_cast<u8>((record.taken ? 1 : 0) |
                                     (record.conditional ? 2 : 0));
    os.put(static_cast<char>(flags));
    writeVarint(os, zigZagEncode(delta));
    last_pc = record.pc;
}

std::size_t
readRecord(const char *data, std::size_t size, BranchRecord &out,
           Addr &last_pc)
{
    if (size == 0) {
        return 0;
    }
    const u8 flags = static_cast<u8>(data[0]);
    if ((flags & ~0x3) != 0) {
        fatal("trace: bad record flags");
    }
    u64 value = 0;
    unsigned shift = 0;
    std::size_t at = 1;
    for (;; ++at) {
        // Overflow is checked before the length, so a hostile
        // over-long varint is fatal even when the buffer ends on
        // its 11th byte, never mistaken for a short buffer.
        if (shift >= 64) {
            fatal("trace: varint overflow");
        }
        if (at >= size) {
            return 0;
        }
        const u8 byte = static_cast<u8>(data[at]);
        value |= (static_cast<u64>(byte) & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            break;
        }
        shift += 7;
    }
    // Mirror of writeRecord(): apply the delta with u64 wrap-around
    // arithmetic. An i64 add here is UB exactly when the encoder's
    // i64 subtract would have been, and a hostile trace can pick
    // deltas that overflow regardless of what the encoder produces.
    last_pc += static_cast<Addr>(zigZagDecode(value));
    out = {last_pc, (flags & 1) != 0, (flags & 2) != 0};
    return at + 1;
}

namespace
{

/**
 * Decode one record starting at @p p with no bounds checks: the
 * caller guarantees at least maxRecordBytes remain, and a record
 * never spans more than that (the overflow fatal below fires before
 * an 11th varint byte is touched, exactly like the checked decoder).
 *
 * Delta-encoded PCs make 1- and 2-byte varints the overwhelmingly
 * common case, so those lengths are peeled into explicit
 * straight-line code (one-byte loads, no loop-carried shift
 * counter, well-predicted branches); longer varints fall into the
 * generic loop with the reference overflow rule.
 */
inline const u8 *
decodeOneUnchecked(const u8 *p, BranchRecord &out, Addr &last_pc)
{
    const u8 flags = *p++;
    if ((flags & ~0x3u) != 0) {
        fatal("trace: bad record flags");
    }
    u64 value;
    const u8 b0 = p[0];
    if ((b0 & 0x80) == 0) {
        value = b0;
        p += 1;
    } else {
        const u8 b1 = p[1];
        if ((b1 & 0x80) == 0) {
            value = (static_cast<u64>(b0) & 0x7f) |
                (static_cast<u64>(b1) << 7);
            p += 2;
        } else {
            value = (static_cast<u64>(b0) & 0x7f) |
                ((static_cast<u64>(b1) & 0x7f) << 7);
            unsigned shift = 14;
            p += 2;
            for (;;) {
                if (shift >= 64) {
                    fatal("trace: varint overflow");
                }
                const u8 byte = *p++;
                value |= (static_cast<u64>(byte) & 0x7f) << shift;
                if ((byte & 0x80) == 0) {
                    break;
                }
                shift += 7;
            }
        }
    }
    // Same u64 wrap-around delta arithmetic as the checked decoder;
    // see readRecord() for why i64 addition would be UB here.
    last_pc += static_cast<Addr>(zigZagDecode(value));
    out = {last_pc, (flags & 1) != 0, (flags & 2) != 0};
    return p;
}

/**
 * Quad template over one 8-byte load: lanes 0/2/4/6 are flag bytes
 * (valid flags have bits 2-7 clear) and lanes 1/3/5/7 are
 * single-byte varints (continuation bit clear). A zero AND against
 * this mask proves four consecutive two-byte records at once.
 */
constexpr u64 quadTwoByteMask = 0x80fc80fc80fc80fcull;

/** Decode one lane pair of a proven quad word. */
inline void
decodeQuadLane(u64 word, unsigned lane, BranchRecord &out,
               Addr &last_pc)
{
    const u64 flags = (word >> (16 * lane)) & 0x3;
    const u64 value = (word >> (16 * lane + 8)) & 0x7f;
    last_pc += static_cast<Addr>(zigZagDecode(value));
    out = {last_pc, (flags & 1) != 0, (flags & 2) != 0};
}

} // namespace

std::size_t
decodeRecords(const u8 *data, std::size_t size, BranchRecord *out,
              std::size_t max, Addr &last_pc, std::size_t &consumed)
{
    const u8 *p = data;
    const u8 *const end = data + size;
    std::size_t done = 0;
    // Fast region: one division bounds a whole sub-batch. Typical
    // records are 2-4 bytes, so each pass clears ~span/11 records
    // and re-enters with most of the span still ahead of it.
    while (done < max) {
        const std::size_t safe =
            static_cast<std::size_t>(end - p) / maxRecordBytes;
        std::size_t batch = std::min(max - done, safe);
        if (batch == 0) {
            break;
        }
        done += batch;
        while (batch >= 4) {
            // Delta encoding keeps most records at two bytes, and
            // they cluster (loop bodies re-branch nearby), so one
            // masked load frequently proves four records at once —
            // and, unlike the scalar path, advances the stream
            // pointer by a constant, off the decode critical path.
            if constexpr (std::endian::native == std::endian::little) {
                u64 word;
                std::memcpy(&word, p, sizeof(word));
                if ((word & quadTwoByteMask) == 0) [[likely]] {
                    decodeQuadLane(word, 0, out[0], last_pc);
                    decodeQuadLane(word, 1, out[1], last_pc);
                    decodeQuadLane(word, 2, out[2], last_pc);
                    decodeQuadLane(word, 3, out[3], last_pc);
                    p += sizeof(word);
                    out += 4;
                    batch -= 4;
                    continue;
                }
            }
            p = decodeOneUnchecked(p, out[0], last_pc);
            ++out;
            --batch;
        }
        while (batch > 0) {
            p = decodeOneUnchecked(p, out[0], last_pc);
            ++out;
            --batch;
        }
    }
    // Ragged tail: fewer than maxRecordBytes remain, so fall back to
    // the per-byte checked decoder until the buffer ends mid-record.
    while (done < max) {
        const std::size_t step = readRecord(
            reinterpret_cast<const char *>(p),
            static_cast<std::size_t>(end - p), out[0], last_pc);
        if (step == 0) {
            break;
        }
        p += step;
        ++out;
        ++done;
    }
    consumed = static_cast<std::size_t>(p - data);
    return done;
}

} // namespace bpred::bpt
