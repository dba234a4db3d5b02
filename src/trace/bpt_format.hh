/**
 * @file
 * Internal BPT1 wire-format primitives: the writer trace_io uses,
 * and the header reader and record decoder behind every BPT1 image
 * (trace/mmap_source.hh).
 *
 * Layout: 4-byte magic "BPT1", varint name length, name bytes,
 * varint record count, then per record a flag byte (bit 0 = taken,
 * bit 1 = conditional) and a zigzag-varint PC delta from the
 * previous record's PC.
 *
 * This header is library-internal: tools exchange traces through
 * trace_io.hh / stream.hh, never by touching the encoding directly.
 */

#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "support/types.hh"
#include "trace/branch_record.hh"

namespace bpred::bpt
{

inline constexpr char magic[4] = {'B', 'P', 'T', '1'};

/** Emit a LEB128 varint. */
void writeVarint(std::ostream &os, u64 value);

/**
 * Decode a LEB128 varint from an in-memory buffer, advancing @p at.
 *
 * @throws FatalError when the buffer ends mid-varint or an 11th
 *         continuation byte would overflow 64 bits.
 */
u64 readVarint(const u8 *data, std::size_t size, std::size_t &at);

/** ZigZag encoding maps signed deltas to small unsigned values. */
u64 zigZagEncode(i64 value);
i64 zigZagDecode(u64 value);

/** The decoded, validated BPT1 header. */
struct Header
{
    std::string name;

    /**
     * Declared record count, already checked against the payload
     * length, so it may size an allocation.
     */
    u64 count = 0;
};

/** Write magic, name and record count. */
void writeHeader(std::ostream &os, const std::string &name, u64 count);

/** Longest benchmark name any BPT1 reader accepts. */
inline constexpr u64 maxNameBytes = 4096;

/**
 * Read and validate the header of a whole BPT1 image in memory: the
 * one header reader, so its bounds cannot drift between ingest
 * paths. A name longer than maxNameBytes is rejected before it sizes
 * anything, and every record costs at least two bytes (flag byte
 * plus one varint byte), so a declared count above half the payload
 * length is provably corrupt and rejected before anyone allocates
 * by it.
 *
 * @param header_bytes Out: bytes the header occupied; the payload
 *        starts at data + header_bytes.
 *
 * @throws FatalError on bad magic, an unreasonable name, a
 *         truncated header, or an overdeclared record count.
 */
Header readHeader(const u8 *data, std::size_t size,
                  std::size_t &header_bytes);

/**
 * Append one record, delta-encoding the PC against @p last_pc
 * (updated in place).
 */
void writeRecord(std::ostream &os, const BranchRecord &record,
                 Addr &last_pc);

/**
 * Upper bound on one encoded record: a flag byte plus a 10-byte
 * varint (readVarint rejects an 11th continuation byte as
 * overflow). Any buffer holding at least this many bytes always
 * resolves the memory-decoding readRecord() below.
 */
inline constexpr std::size_t maxRecordBytes = 11;

/**
 * Decode one record from an in-memory buffer, checking every byte:
 * the reference decoder, which decodeRecords() below runs on its
 * ragged tail and tests use as the oracle.
 *
 * @return Bytes consumed (record written to @p out, @p last_pc
 *         advanced), or 0 when the buffer ends mid-record with
 *         nothing modified.
 *
 * @throws FatalError on bad flags or varint overflow.
 */
std::size_t readRecord(const char *data, std::size_t size,
                       BranchRecord &out, Addr &last_pc);

/**
 * Bulk-decode up to @p max records from @p data: the one record
 * loop behind every BPT1 ingest path. Instead of a per-byte bounds
 * check, the buffer is carved into sub-batches of records whose
 * worst-case encoded size (maxRecordBytes each) provably fits in
 * the remaining span, and the sub-batch body decodes with
 * unchecked loads; the ragged tail falls back to the checked
 * readRecord() above. Wire semantics are bit-identical to that
 * checked decoder: same flag validation, same varint overflow rule,
 * same u64 wrap-around delta arithmetic.
 *
 * @param consumed Out: bytes consumed from @p data.
 * @return Records decoded; less than @p max only when the buffer
 *         ends (possibly mid-record — the partial record is not
 *         consumed, mirroring readRecord()'s contract).
 *
 * @throws FatalError on bad flags or varint overflow.
 */
std::size_t decodeRecords(const u8 *data, std::size_t size,
                          BranchRecord *out, std::size_t max,
                          Addr &last_pc, std::size_t &consumed);

} // namespace bpred::bpt

