#include "trace/text_source.hh"

#include <array>
#include <charconv>
#include <cstring>

#include "support/logging.hh"
#include "support/tracing.hh"
#include "trace/text_scan_simd.hh"

namespace bpred
{

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

TextTraceSource::TextTraceSource(std::string_view text, std::string name,
                                 TextDialect dialect, SimdMode simd)
    : name_(std::move(name)), mode(resolveSimdMode(simd))
{
    open(text, dialect);
}

TextTraceSource::TextTraceSource(std::string &&text, std::string name,
                                 TextDialect dialect, SimdMode simd)
    : owned(std::move(text)), name_(std::move(name)),
      mode(resolveSimdMode(simd))
{
    open(owned, dialect);
}

void
TextTraceSource::open(std::string_view text, TextDialect dialect)
{
    at = text.data();
    end = at + text.size();
    if (dialect == TextDialect::detect) {
        dialect = detectDialect(at, end);
    }
    native = dialect == TextDialect::native;
}

std::size_t
TextTraceSource::recordBound() const
{
    const std::size_t bytes = static_cast<std::size_t>(end - at);
    return (bytes + 1) / (native ? 6 : 4);
}

std::size_t
TextTraceSource::pull(BranchRecord *out, std::size_t max)
{
    if (at == end) {
        return 0;
    }
    trace::Scope span("ingest", "text-parse");
    const char *const start = at;
    std::size_t n = 0;
    while (n < max && at < end) {
#if BPRED_HAVE_AVX2
        if (mode == SimdMode::Avx2) {
            // Writer-shaped lines; it stops at any other line and
            // leaves that one to the reference walk below.
            n += scanShapedLinesAvx2(at, end, native, out + n, max - n,
                                     lineNo);
            if (n == max || at == end) {
                break;
            }
        }
#endif
        while (at < end && classOf(*at) == blankByte) {
            ++at;
        }
        if (at < end && classOf(*at) == fieldByte) {
            out[n++] = native ? parseNativeLine(at, end, lineNo)
                              : parseCbpLine(at, end, lineNo);
        }
        // Skip a comment and any fields after the direction.
        at = nextLine(at, end);
        ++lineNo;
    }
    span.setArgs(static_cast<u64>(at - start), n);
    return n;
}

} // namespace bpred
