/**
 * @file
 * Branch-trace serialization.
 *
 * Two formats are supported:
 *
 *  - A compact binary format ("BPT1"): magic, name, record count,
 *    then delta-encoded records (varint PC delta, flag byte). This is
 *    what tools should use to exchange traces.
 *  - A human-readable text format: one record per line,
 *    "C|U <hex pc> T|N", with '#' comments. Handy for writing small
 *    traces by hand in tests and examples. The same scanner also
 *    reads the CBP/CSE240A "<pc> <dir>" dialect public corpora use.
 */

#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/trace.hh"

namespace bpred
{

/** Serialize @p trace in the binary "BPT1" format. */
void writeBinaryTrace(std::ostream &os, const Trace &trace);

/**
 * Deserialize a binary "BPT1" trace: read @p is to its end, then
 * drain an image over those bytes (trace/mmap_source.hh). Bytes
 * after the declared records are ignored.
 *
 * @throws FatalError on malformed input.
 */
Trace readBinaryTrace(std::istream &is);

/** Write @p trace as binary to @p path. @throws FatalError on I/O error. */
void saveBinaryTrace(const std::string &path, const Trace &trace);

/**
 * Read a binary trace from @p path: a drain of openTraceSource()'s
 * image, mmap'd when the file can be.
 *
 * @throws FatalError on error.
 */
Trace loadBinaryTrace(const std::string &path);

/** Serialize @p trace in the text format. */
void writeTextTrace(std::ostream &os, const Trace &trace);

/** The two line grammars parseTextTrace() reads. */
enum class TextDialect
{
    /** Native if the first non-comment line starts "C " or "U ". */
    detect,
    /** "C|U <hex pc> T|N"; the pc may carry a 0x prefix. */
    native,
    /** CBP "<pc> <dir>": decimal or 0x-hex pc, dir one of 1/0/T/N/t/n. */
    cbp,
};

/**
 * Parse a whole text trace held in memory: the one text decoder
 * behind every text entry point. '#' starts a comment, fields are
 * separated by spaces, tabs or CRs, and tokens after the direction
 * are ignored. A pc is digits only (no sign), at most 64 bits, and
 * every field is a whole token.
 *
 * @throws FatalError naming the first bad line.
 */
Trace parseTextTrace(std::string_view text, std::string name,
                     TextDialect dialect = TextDialect::detect);

/**
 * Read @p is to end of stream into one buffer, sized up front when
 * the stream can report its length.
 */
std::string readAllBytes(std::istream &is);

/**
 * Parse a native-dialect text trace from a stream.
 *
 * @throws FatalError on malformed lines.
 */
Trace readTextTrace(std::istream &is, const std::string &name = "");

} // namespace bpred

