#include "trace/trace_io.hh"

#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>

#include "support/aligned.hh"
#include "support/logging.hh"
#include "trace/bpt_format.hh"
#include "trace/mmap_source.hh"
#include "trace/text_source.hh"

namespace bpred
{

void
writeBinaryTrace(std::ostream &os, const Trace &trace)
{
    bpt::writeHeader(os, trace.name(), trace.size());
    Addr last_pc = 0;
    for (const BranchRecord &record : trace) {
        bpt::writeRecord(os, record, last_pc);
    }
    if (!os) {
        fatal("trace: write failure");
    }
}

Trace
readBinaryTrace(std::istream &is)
{
    MmapTraceSource source(MappedTrace::fromBytes(readAllBytes(is)));
    return drainSource(source);
}

void
saveBinaryTrace(const std::string &path, const Trace &trace)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        fatal("trace: cannot open '" + path + "' for writing");
    }
    writeBinaryTrace(os, trace);
    if (!os) {
        fatal("trace: error while writing '" + path + "'");
    }
}

Trace
loadBinaryTrace(const std::string &path)
{
    MmapTraceSource source(path);
    return drainSource(source);
}

void
writeTextTrace(std::ostream &os, const Trace &trace)
{
    os << "# trace: " << trace.name() << "\n";
    os << "# format: C|U <hex pc> T|N\n";
    // Longest line: kind, space, 16 hex digits, space, dir, newline.
    constexpr std::ptrdiff_t maxLine = 21;
    char block[64 * 1024];
    char *at = block;
    for (const BranchRecord &record : trace) {
        if (block + sizeof(block) - at < maxLine) {
            os.write(block, at - block);
            at = block;
        }
        *at++ = record.conditional ? 'C' : 'U';
        *at++ = ' ';
        at = std::to_chars(at, at + 16, record.pc, 16).ptr;
        *at++ = ' ';
        *at++ = record.taken ? 'T' : 'N';
        *at++ = '\n';
    }
    os.write(block, at - block);
}

namespace
{

/** Records per pull while parseTextTrace() drains its scanner. */
constexpr std::size_t parseChunkRecords = 8192;

} // namespace

Trace
parseTextTrace(std::string_view text, std::string name,
               TextDialect dialect)
{
    TextTraceSource source(text, std::move(name), dialect);
    Trace trace(source.name());
    // bp_lint: allow(reserve-untrusted): bounded by the text's own
    // byte length; capacity never written is never faulted in.
    trace.reserve(source.recordBound());
    AlignedVector<BranchRecord> chunk(parseChunkRecords);
    while (const std::size_t n = source.pull(chunk.data(), chunk.size())) {
        trace.append(chunk.data(), n);
    }
    return trace;
}

std::string
readAllBytes(std::istream &is)
{
    std::string bytes;
    const std::istream::pos_type start = is.tellg();
    if (start != std::istream::pos_type(-1)) {
        is.seekg(0, std::ios::end);
        const std::istream::pos_type stop = is.tellg();
        is.clear();
        is.seekg(start);
        if (stop != std::istream::pos_type(-1) && stop > start) {
            const std::streamsize length = stop - start;
            // bp_lint: allow(reserve-untrusted): the stream's own
            // remaining length, read right after.
            bytes.resize(static_cast<std::size_t>(length));
            is.read(bytes.data(), length);
            // A short read means the file shrank after sizing.
            bytes.erase(static_cast<std::size_t>(is.gcount()));
        }
    }
    // Unseekable streams, and any bytes appended since sizing.
    char chunk[64 * 1024];
    while (is.read(chunk, sizeof(chunk)), is.gcount() > 0) {
        bytes.append(chunk, static_cast<std::size_t>(is.gcount()));
    }
    return bytes;
}

Trace
readTextTrace(std::istream &is, const std::string &name)
{
    return parseTextTrace(readAllBytes(is), name, TextDialect::native);
}

} // namespace bpred
