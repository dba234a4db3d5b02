#include "trace/trace_io.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "support/logging.hh"
#include "support/tracing.hh"
#include "trace/bpt_format.hh"
#include "trace/mmap_source.hh"

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

/**
 * Byte classes of the text grammar: spaces, tabs and CRs separate
 * fields; '#' and '\n' end a line's content; anything else is part
 * of a field.
 */
enum : u8
{
    fieldByte,
    blankByte,
    stopByte,
};

constexpr std::array<u8, 256> byteClass = [] {
    std::array<u8, 256> table{};
    table[' '] = table['\t'] = table['\r'] = blankByte;
    table['#'] = table['\n'] = stopByte;
    return table;
}();

u8
classOf(char c)
{
    return byteClass[static_cast<u8>(c)];
}

/** One field of a line, as a view into the text. */
struct Token
{
    const char *begin = nullptr;
    const char *end = nullptr;

    bool empty() const { return begin == end; }

    bool
    is(char c) const
    {
        return end - begin == 1 && *begin == c;
    }
};

/**
 * The next field at @p at, advancing past it. Never crosses a '#'
 * or '\n': once the line's content has ended, every later call
 * returns an empty token.
 */
Token
nextToken(const char *&at, const char *end)
{
    while (at < end && classOf(*at) == blankByte) {
        ++at;
    }
    Token token{at, at};
    while (at < end && classOf(*at) == fieldByte) {
        ++at;
    }
    token.end = at;
    return token;
}

/** The start of the line after the one @p at is in. */
const char *
nextLine(const char *at, const char *end)
{
    if (at >= end) {
        return end;
    }
    if (*at == '\n') {
        return at + 1;
    }
    const void *newline =
        std::memchr(at, '\n', static_cast<std::size_t>(end - at));
    return newline != nullptr ? static_cast<const char *>(newline) + 1
                              : end;
}

/**
 * Convert the pc field at @p at, advancing past the whole field:
 * digits in @p base, or hex digits after a 0x/0X prefix. True when
 * the field is exactly that number: no sign, no trailing bytes, no
 * overflow past 64 bits. std::from_chars reads the digits in the
 * same pass that finds the field's end.
 */
bool
parsePcField(const char *&at, const char *end, int base, Addr &pc)
{
    while (at < end && classOf(*at) == blankByte) {
        ++at;
    }
    const char *digits = at;
    if (end - at > 2 && at[0] == '0' && (at[1] == 'x' || at[1] == 'X')) {
        digits += 2;
        base = 16;
    }
    const auto [stop, error] = std::from_chars(digits, end, pc, base);
    at = stop;
    while (at < end && classOf(*at) == fieldByte) {
        ++at;
    }
    return error == std::errc() && stop == at;
}

[[noreturn]] void
failLine(const char *what, u64 line_no)
{
    fatal(std::string("trace: ") + what + std::to_string(line_no));
}

/**
 * Native when the first non-blank, non-comment line starts with a
 * one-letter kind field followed by a space or tab; CBP otherwise.
 */
TextDialect
detectDialect(const char *at, const char *end)
{
    while (at < end) {
        const Token first = nextToken(at, end);
        if (!first.empty()) {
            return (first.is('C') || first.is('U')) && at < end &&
                    (*at == ' ' || *at == '\t')
                ? TextDialect::native
                : TextDialect::cbp;
        }
        at = nextLine(at, end);
    }
    return TextDialect::cbp;
}

/** What a one-byte direction field means in each dialect. */
enum : u8
{
    dirNotTaken,
    dirTaken,
    dirBad,
};

constexpr std::array<u8, 256> nativeDirection = [] {
    std::array<u8, 256> table{};
    table.fill(dirBad);
    table['T'] = dirTaken;
    table['N'] = dirNotTaken;
    return table;
}();

constexpr std::array<u8, 256> cbpDirection = [] {
    std::array<u8, 256> table{};
    table.fill(dirBad);
    table['1'] = table['T'] = table['t'] = dirTaken;
    table['0'] = table['N'] = table['n'] = dirNotTaken;
    return table;
}();

/** The direction field's meaning under @p table. */
u8
directionOf(const Token &direction, const std::array<u8, 256> &table)
{
    return direction.end - direction.begin == 1
        ? table[static_cast<u8>(*direction.begin)]
        : static_cast<u8>(dirBad);
}

/** Parse one native line, from its first field on. */
BranchRecord
parseNativeLine(const char *&at, const char *end, u64 line_no)
{
    const Token kind = nextToken(at, end);
    Addr pc = 0;
    const bool pc_ok = parsePcField(at, end, 16, pc);
    const Token direction = nextToken(at, end);
    if (direction.empty()) {
        failLine("malformed line ", line_no);
    }
    const bool conditional = kind.is('C');
    if (!conditional && !kind.is('U')) {
        failLine("bad branch kind on line ", line_no);
    }
    const u8 dir = directionOf(direction, nativeDirection);
    if (dir == dirBad) {
        failLine("bad direction on line ", line_no);
    }
    if (!pc_ok) {
        failLine("bad pc on line ", line_no);
    }
    if (!conditional && dir == dirNotTaken) {
        failLine("unconditional branch marked not-taken on line ",
                 line_no);
    }
    return {pc, dir == dirTaken, conditional};
}

/** Parse one CBP line, from its first field on. */
BranchRecord
parseCbpLine(const char *&at, const char *end, u64 line_no)
{
    Addr pc = 0;
    const bool pc_ok = parsePcField(at, end, 10, pc);
    const Token direction = nextToken(at, end);
    if (direction.empty()) {
        failLine("malformed line ", line_no);
    }
    if (!pc_ok) {
        failLine("bad pc on line ", line_no);
    }
    const u8 dir = directionOf(direction, cbpDirection);
    if (dir == dirBad) {
        failLine("bad direction on line ", line_no);
    }
    return {pc, dir == dirTaken, true};
}

} // namespace

Trace
parseTextTrace(std::string_view text, std::string name,
               TextDialect dialect)
{
    trace::Scope span("ingest", "text-parse");
    const char *at = text.data();
    const char *const end = at + text.size();
    if (dialect == TextDialect::detect) {
        dialect = detectDialect(at, end);
    }
    const bool native = dialect == TextDialect::native;

    Trace trace(std::move(name));
    // A record line is at least "C 0 T\n" (native) or "0 1\n" (CBP),
    // so this bounds the record count and the vector never grows.
    // bp_lint: allow(reserve-untrusted): bounded by the text's own
    // byte length; capacity never written is never faulted in.
    trace.reserve((text.size() + 1) / (native ? 6 : 4));

    for (u64 line_no = 1; at < end; ++line_no) {
        while (at < end && classOf(*at) == blankByte) {
            ++at;
        }
        if (at < end && classOf(*at) == fieldByte) {
            trace.append(native ? parseNativeLine(at, end, line_no)
                                : parseCbpLine(at, end, line_no));
        }
        // Skip a comment and any fields after the direction.
        at = nextLine(at, end);
    }
    span.setArgs(text.size(), trace.size());
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
