/**
 * @file
 * Fuzz-style robustness tests for trace deserialization: malformed
 * input must raise FatalError (or parse), never crash or hang.
 *
 * The BPT1 half mutates multi-KB images, large enough to reach the
 * bulk decoder's unchecked fast region, and feeds each input through
 * every binary route: readBinaryTrace over an istream, a .bpt file
 * and the same bytes as .bpt.gz. Every route must agree with the
 * checked per-record decoder: the same records, or a FatalError.
 *
 * The text half is differential. The line-at-a-time getline +
 * istringstream + stoull parsers the span scanner replaced live on
 * below as oracles, and seeded random and mutated inputs in both
 * dialects must satisfy: whenever the scanner accepts, the oracle
 * accepts and yields the same records; whenever the oracle rejects,
 * the scanner rejects too, on the same line or an earlier one. The
 * scanner may reject more (its grammar is stricter), never less.
 *
 * The whole-buffer span scanner that the streaming TextTraceSource
 * replaced lives on too, as the exact oracle: every text input is
 * also drained through the streaming source on both scan paths
 * (scalar and AVX2) at pull sizes 1, 7 and 8192, and must give the
 * span scanner's records or its exact line-numbered error. Longer
 * inputs shift writer-shaped lines across every offset of the
 * vector pass's blocks, mix in every accepted odd spelling, and put
 * a bad line past the first pull.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <optional>
#include <sstream>
#include <string_view>
#include <unistd.h>
#include <utility>
#include <vector>

#include "support/logging.hh"
#include "support/rng.hh"
#include "trace/adapters.hh"
#include "sim/corpus.hh"
#include "support/simd.hh"
#include "trace/bpt_format.hh"
#include "trace/text_source.hh"
#include "trace/trace_io.hh"

namespace bpred
{
namespace
{

// ------------------------------------------------------------ oracles

/** The native-dialect parser the scanner replaced, verbatim. */
Trace
oracleNativeText(std::istream &is, const std::string &name)
{
    Trace trace(name);
    std::string line;
    u64 line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        // Strip comments and blank lines.
        const auto hash = line.find('#');
        if (hash != std::string::npos) {
            line.erase(hash);
        }
        std::istringstream fields(line);
        char kind = 0;
        std::string pc_text;
        char direction = 0;
        if (!(fields >> kind)) {
            continue; // blank line
        }
        if (!(fields >> pc_text >> direction)) {
            fatal("trace: malformed line " + std::to_string(line_no));
        }
        if (kind != 'C' && kind != 'U') {
            fatal("trace: bad branch kind on line " +
                  std::to_string(line_no));
        }
        if (direction != 'T' && direction != 'N') {
            fatal("trace: bad direction on line " +
                  std::to_string(line_no));
        }
        Addr pc = 0;
        try {
            pc = std::stoull(pc_text, nullptr, 16);
        } catch (const std::exception &) {
            fatal("trace: bad pc on line " + std::to_string(line_no));
        }
        const bool taken = direction == 'T';
        if (kind == 'U' && !taken) {
            fatal("trace: unconditional branch marked not-taken on line " +
                  std::to_string(line_no));
        }
        trace.append({pc, taken, kind == 'C'});
    }
    return trace;
}

/** The CBP-dialect parser the scanner replaced, verbatim. */
Trace
oracleCbpText(std::istream &is, const std::string &name)
{
    Trace trace(name);
    std::string line;
    u64 line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos) {
            line.erase(hash);
        }
        std::istringstream fields(line);
        std::string pc_text;
        std::string dir_text;
        if (!(fields >> pc_text)) {
            continue; // blank line
        }
        if (!(fields >> dir_text)) {
            fatal("trace: malformed line " + std::to_string(line_no));
        }
        Addr pc = 0;
        try {
            std::size_t used = 0;
            const bool hex = pc_text.size() > 2 &&
                pc_text[0] == '0' &&
                (pc_text[1] == 'x' || pc_text[1] == 'X');
            pc = std::stoull(pc_text, &used, hex ? 16 : 10);
            if (used != pc_text.size()) {
                fatal("trace: bad pc on line " +
                      std::to_string(line_no));
            }
        } catch (const std::exception &) {
            fatal("trace: bad pc on line " + std::to_string(line_no));
        }
        bool taken = false;
        if (dir_text == "1" || dir_text == "T" || dir_text == "t") {
            taken = true;
        } else if (dir_text == "0" || dir_text == "N" ||
                   dir_text == "n") {
            taken = false;
        } else {
            fatal("trace: bad direction on line " +
                  std::to_string(line_no));
        }
        trace.appendConditional(pc, taken);
    }
    return trace;
}

/** The dialect sniffer the scanner replaced, verbatim. */
bool
oracleLooksNative(const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        const auto hash = line.find('#');
        if (hash != std::string::npos) {
            line.erase(hash);
        }
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos) {
            continue;
        }
        const char c = line[first];
        return (c == 'C' || c == 'U') && first + 1 < line.size() &&
            (line[first + 1] == ' ' || line[first + 1] == '\t');
    }
    return false;
}

/** The per-field ostream writer writeTextTrace replaced, verbatim. */
void
oracleWriteText(std::ostream &os, const Trace &trace)
{
    os << "# trace: " << trace.name() << "\n";
    os << "# format: C|U <hex pc> T|N\n";
    os << std::hex;
    for (const BranchRecord &record : trace) {
        os << (record.conditional ? 'C' : 'U') << ' '
           << record.pc << ' '
           << (record.taken ? 'T' : 'N') << '\n';
    }
    os << std::dec;
}

/**
 * The whole-buffer span scanner the streaming TextTraceSource
 * replaced, verbatim but for its trace span and reserve: the exact
 * oracle for the streaming scanner, which must give the same
 * records and the same line-numbered errors on every input.
 */
namespace spanscan
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

Trace
parse(std::string_view text, TextDialect dialect)
{
    const char *at = text.data();
    const char *const end = at + text.size();
    if (dialect == TextDialect::detect) {
        dialect = detectDialect(at, end);
    }
    const bool native = dialect == TextDialect::native;
    Trace trace("t");
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
    return trace;
}

} // namespace spanscan

/** Either the parsed records or the line the parse failed on. */
struct Outcome
{
    std::optional<Trace> trace;
    u64 failedLine = 0;
    std::string error;
};

template <typename Parse>
Outcome
outcomeOf(Parse parse)
{
    Outcome outcome;
    try {
        outcome.trace = parse();
    } catch (const FatalError &error) {
        outcome.error = error.what();
        const std::size_t at = outcome.error.rfind(' ');
        outcome.failedLine = std::stoull(outcome.error.substr(at + 1));
    }
    return outcome;
}

Outcome
oracleOutcome(const std::string &text, TextDialect dialect)
{
    if (dialect == TextDialect::detect) {
        dialect = oracleLooksNative(text) ? TextDialect::native
                                          : TextDialect::cbp;
    }
    return outcomeOf([&] {
        std::istringstream is(text);
        return dialect == TextDialect::native ? oracleNativeText(is, "t")
                                              : oracleCbpText(is, "t");
    });
}

/** Tallies, so each fuzz test can prove it reached both outcomes. */
struct Agreement
{
    int accepted = 0;
    int rejected = 0;
};

/** Pull sizes the streaming scanner is drained at. */
constexpr std::size_t pullSizes[] = {1, 7, 8192};

/** Scan paths the streaming scanner is drained on. */
constexpr SimdMode scanModes[] = {SimdMode::Scalar, SimdMode::Avx2};

/**
 * The streaming scanner, drained on every scan path at every pull
 * size, gives exactly the span oracle's outcome: the same records,
 * or the same line-numbered error.
 */
void
expectDrainsLikeSpanScan(const std::string &text, TextDialect dialect)
{
    const Outcome want =
        outcomeOf([&] { return spanscan::parse(text, dialect); });
    for (const SimdMode mode : scanModes) {
        for (const std::size_t pull : pullSizes) {
            SCOPED_TRACE(std::string("scan ") + simdModeName(mode) +
                         ", pull " + std::to_string(pull));
            const Outcome got = outcomeOf([&] {
                TextTraceSource source(std::string_view(text), "t",
                                       dialect, mode);
                return drainSource(source, pull);
            });
            if (want.trace) {
                ASSERT_TRUE(got.trace) << got.error;
                ASSERT_EQ(got.trace->records(), want.trace->records());
            } else {
                ASSERT_FALSE(got.trace);
                ASSERT_EQ(got.error, want.error);
            }
        }
    }
}

/**
 * expectDrainsLikeSpanScan() on @p text as given and, for a fixed
 * dialect, between 100 bytes of writer-shaped lines on each side,
 * so that its lines also reach the vector pass, which leaves the
 * last 80 bytes of any text to the scalar walk.
 */
void
expectStreamsLikeSpanScan(const std::string &text, TextDialect dialect)
{
    expectDrainsLikeSpanScan(text, dialect);
    if (dialect == TextDialect::detect) {
        return;
    }
    const char *const line =
        dialect == TextDialect::native ? "C 4a0 T\n" : "1184 1\n";
    std::string padding;
    while (padding.size() < 100) {
        padding += line;
    }
    SCOPED_TRACE("between writer-shaped lines");
    expectDrainsLikeSpanScan(padding + text + "\n" + padding, dialect);
}

/**
 * Check the differential contract for @p text in @p dialect, and
 * the streaming scanner against the span oracle.
 */
void
expectAgrees(const std::string &text, TextDialect dialect,
             Agreement &tally)
{
    expectStreamsLikeSpanScan(text, dialect);
    const Outcome scanned =
        outcomeOf([&] { return parseTextTrace(text, "t", dialect); });
    const Outcome oracle = oracleOutcome(text, dialect);
    SCOPED_TRACE("dialect " + std::to_string(int(dialect)) +
                 ", input:\n" + text);
    if (scanned.trace) {
        ++tally.accepted;
        ASSERT_TRUE(oracle.trace) << "oracle rejected: " << oracle.error;
        ASSERT_EQ(scanned.trace->records(), oracle.trace->records());
        return;
    }
    ++tally.rejected;
    ASSERT_GT(scanned.failedLine, 0u) << scanned.error;
    if (!oracle.trace) {
        EXPECT_LE(scanned.failedLine, oracle.failedLine)
            << scanned.error << " vs " << oracle.error;
    }
}

void
expectAgreesInEveryDialect(const std::string &text, Agreement &tally)
{
    for (const TextDialect dialect :
         {TextDialect::detect, TextDialect::native, TextDialect::cbp}) {
        expectAgrees(text, dialect, tally);
    }
}

/** A trace with both kinds and a wide spread of pc magnitudes. */
Trace
makeTextSample(Rng &rng, std::size_t records)
{
    Trace trace("sample");
    for (std::size_t i = 0; i < records; ++i) {
        const unsigned bits = 1 + static_cast<unsigned>(rng.uniformInt(64));
        const Addr pc = rng.next() >> (64 - bits);
        if (rng.chance(0.2)) {
            trace.appendUnconditional(pc);
        } else {
            trace.appendConditional(pc, rng.chance(0.5));
        }
    }
    return trace;
}

/** CBP text for @p trace's records: mixed hex/decimal and dir spellings. */
std::string
cbpText(const Trace &trace, Rng &rng)
{
    static const char *const taken[] = {"1", "T", "t"};
    static const char *const notTaken[] = {"0", "N", "n"};
    std::ostringstream os;
    os << "# cbp sample\n";
    for (const BranchRecord &record : trace) {
        if (rng.chance(0.5)) {
            os << "0x" << std::hex << record.pc << std::dec;
        } else {
            os << record.pc;
        }
        os << (rng.chance(0.5) ? ' ' : '\t')
           << (record.taken ? taken : notTaken)[rng.uniformInt(3)]
           << '\n';
    }
    return os.str();
}

/** Bytes the mutator splices in: every grammar-significant class. */
constexpr char mutationAlphabet[] =
    "CUTNtn01 9fFgzxX#\n\t\r\v+-";

/** Apply 1-3 random byte edits: replace, insert, delete, truncate. */
std::string
mutate(std::string text, Rng &rng)
{
    const int edits = 1 + static_cast<int>(rng.uniformInt(3));
    for (int e = 0; e < edits && !text.empty(); ++e) {
        const std::size_t at = rng.uniformInt(text.size());
        const char byte =
            mutationAlphabet[rng.uniformInt(sizeof(mutationAlphabet) - 1)];
        switch (rng.uniformInt(4)) {
        case 0: text[at] = byte; break;
        case 1: text.insert(text.begin() + at, byte); break;
        case 2: text.erase(at, 1); break;
        default: text.resize(at); break;
        }
    }
    return text;
}

TEST(TraceFuzz, RandomBytesNeverCrashBinaryReader)
{
    Rng rng(0xf022);
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t length = rng.uniformInt(200);
        std::string bytes;
        bytes.reserve(length + 4);
        // Half the trials start with the valid magic to reach the
        // deeper parsing paths.
        if (rng.chance(0.5)) {
            bytes += "BPT1";
        }
        for (std::size_t i = 0; i < length; ++i) {
            bytes.push_back(static_cast<char>(rng.uniformInt(256)));
        }
        std::stringstream stream(bytes);
        try {
            const Trace trace = readBinaryTrace(stream);
            // Parsing succeeded: the result must be internally
            // consistent (no negative sizes etc. — just touch it).
            (void)computeTraceStats(trace);
        } catch (const FatalError &) {
            // Expected for malformed input.
        }
    }
}

TEST(TraceFuzz, BitFlippedValidTraceNeverCrashes)
{
    // Serialize a real trace, then flip one byte at a time.
    Trace original("flip");
    Rng rng(77);
    Addr pc = 0x1000;
    for (int i = 0; i < 64; ++i) {
        pc += 4 * (1 + rng.uniformInt(32));
        if (rng.chance(0.3)) {
            original.appendUnconditional(pc);
        } else {
            original.appendConditional(pc, rng.chance(0.5));
        }
    }
    std::stringstream buffer;
    writeBinaryTrace(buffer, original);
    const std::string bytes = buffer.str();

    for (std::size_t position = 0; position < bytes.size();
         ++position) {
        for (const u8 flip : {u8(0x01), u8(0x80), u8(0xff)}) {
            std::string mutated = bytes;
            mutated[position] =
                static_cast<char>(mutated[position] ^ flip);
            std::stringstream stream(mutated);
            try {
                const Trace trace = readBinaryTrace(stream);
                (void)trace.size();
            } catch (const FatalError &) {
                // fine
            }
        }
    }
}

TEST(TraceFuzz, RandomTextNeverCrashesTextReader)
{
    Rng rng(0xbeef);
    const char alphabet[] = "CUTN 0123456789abcdefx#\n\t";
    for (int trial = 0; trial < 300; ++trial) {
        std::string text;
        const std::size_t length = rng.uniformInt(400);
        for (std::size_t i = 0; i < length; ++i) {
            text.push_back(
                alphabet[rng.uniformInt(sizeof(alphabet) - 1)]);
        }
        std::stringstream stream(text);
        try {
            (void)readTextTrace(stream, "fuzz");
        } catch (const FatalError &) {
            // fine
        }
    }
}

TEST(TextDifferential, RandomTextAgreesWithOracle)
{
    Rng rng(0x7e47);
    Agreement tally;
    const char alphabet[] = "CUTNtn 0123456789abcdefABCDEFxX#\n\t\r\v+-";
    for (int trial = 0; trial < 2000; ++trial) {
        std::string text;
        const std::size_t length = rng.uniformInt(48);
        for (std::size_t i = 0; i < length; ++i) {
            text.push_back(
                alphabet[rng.uniformInt(sizeof(alphabet) - 1)]);
        }
        expectAgreesInEveryDialect(text, tally);
    }
    EXPECT_GT(tally.accepted, 100);
    EXPECT_GT(tally.rejected, 100);
}

TEST(TextDifferential, MutatedWriterOutputAgreesWithOracle)
{
    Rng rng(0x5ca7);
    Agreement tally;
    for (int trial = 0; trial < 600; ++trial) {
        const Trace trace = makeTextSample(rng, 1 + rng.uniformInt(12));
        std::ostringstream native;
        writeTextTrace(native, trace);
        for (const std::string &clean : {native.str(), cbpText(trace, rng)}) {
            expectAgreesInEveryDialect(clean, tally);
            expectAgreesInEveryDialect(mutate(clean, rng), tally);
        }
    }
    EXPECT_GT(tally.accepted, 1000);
    EXPECT_GT(tally.rejected, 1000);
}

/**
 * One random line in the native (@p native) or CBP shape. Each field
 * is usually well formed and sometimes drawn from near misses, so
 * whole inputs parse often and each grammar rule is probed.
 */
std::string
grammarLine(Rng &rng, bool native)
{
    static const char *const kinds[] = {"C", "U"};
    static const char *const oddKinds[] = {"X", "CU", "c", ""};
    static const char *const nativeDirections[] = {"T", "N"};
    static const char *const cbpDirections[] = {"1", "0", "T", "N", "t", "n"};
    static const char *const oddDirections[] = {
        "Tx", "NN", "2", "t", "n", "", "#"};
    static const char *const oddPcs[] = {
        "-5", "+5", "40zz", "0x", "0x0x5", "0X1F", "-0x5",
        "10000000000000000", "0xffffffffffffffff",
        "18446744073709551615", "18446744073709551616",
        "00000000000000000040"};
    static const char *const separators[] = {" ", "\t", "  "};
    static const char *const oddSeparators[] = {"\r", "\v", ""};
    static const char *const tails[] = {"", " # note", " extra", "#"};
    static const char *const endings[] = {"\n", "\r\n", "\n\n"};
    const auto pick = [&](const auto &options) {
        return std::string(options[rng.uniformInt(std::size(options))]);
    };
    const auto field = [&](const auto &usual, const auto &odd) {
        return rng.chance(0.95) ? pick(usual) : pick(odd);
    };
    std::ostringstream pc;
    if (rng.chance(0.05)) {
        pc << pick(oddPcs);
    } else if (native || rng.chance(0.5)) {
        pc << (native && rng.chance(0.7) ? "" : "0x") << std::hex
           << (rng.next() >> rng.uniformInt(64));
    } else {
        pc << (rng.next() >> rng.uniformInt(64));
    }
    std::string line;
    if (native) {
        line += field(kinds, oddKinds) + field(separators, oddSeparators);
    }
    line += pc.str() + field(separators, oddSeparators) +
        (native ? field(nativeDirections, oddDirections)
                : field(cbpDirections, oddDirections));
    return line + pick(tails) + pick(endings);
}

TEST(TextDifferential, GrammarLinesAgreeWithOracle)
{
    Rng rng(0x6a77);
    Agreement tally;
    for (int trial = 0; trial < 3000; ++trial) {
        const bool native = rng.chance(0.5);
        std::string text;
        const int lines = 1 + static_cast<int>(rng.uniformInt(4));
        for (int line = 0; line < lines; ++line) {
            text += grammarLine(rng, native);
        }
        expectAgreesInEveryDialect(text, tally);
    }
    EXPECT_GT(tally.accepted, 1000);
    EXPECT_GT(tally.rejected, 1000);
}

TEST(TextDifferential, FixedEdgeCases)
{
    Agreement tally;
    const auto parses = [&](const std::string &text, TextDialect dialect,
                            std::vector<BranchRecord> expected) {
        expectAgreesInEveryDialect(text, tally);
        const Trace trace = parseTextTrace(text, "edge", dialect);
        EXPECT_EQ(trace.records(), expected) << text;
    };
    const auto rejects = [&](const std::string &text, TextDialect dialect) {
        expectAgreesInEveryDialect(text, tally);
        EXPECT_THROW(parseTextTrace(text, "edge", dialect), FatalError)
            << text;
    };
    constexpr TextDialect native = TextDialect::native;
    constexpr TextDialect cbp = TextDialect::cbp;
    constexpr Addr maxPc = ~Addr(0);

    // CRLF line endings.
    parses("C 40 T\r\nU 44 T\r\n", native,
           {{0x40, true, true}, {0x44, true, false}});
    parses("0x40 1\r\n64 n\r\n", cbp,
           {{0x40, true, true}, {64, false, true}});
    // No final newline.
    parses("C 40 T\nC 44 N", native,
           {{0x40, true, true}, {0x44, false, true}});
    parses("0x40 1\n64 0", cbp, {{0x40, true, true}, {64, false, true}});
    // Tabs as separators.
    parses("\tC\t40\tT\t\n", native, {{0x40, true, true}});
    parses("\t0x40\t1\n", cbp, {{0x40, true, true}});
    // Uppercase hex digits and prefix.
    parses("C ABCDEF T\nC 0XaBc N\n", native,
           {{0xabcdef, true, true}, {0xabc, false, true}});
    parses("0XABCDEF 1\n", cbp, {{0xabcdef, true, true}});
    // A 16-digit pc fits; a 17-digit one overflows.
    parses("C ffffffffffffffff T\n", native, {{maxPc, true, true}});
    parses("0xFFFFFFFFFFFFFFFF 1\n18446744073709551615 0\n", cbp,
           {{maxPc, true, true}, {maxPc, false, true}});
    rejects("C 10000000000000000 T\n", native);
    rejects("0x10000000000000000 1\n", cbp);
    rejects("18446744073709551616 1\n", cbp);
    // Comment-only and empty files parse to empty traces.
    parses("# nothing here\n   # nor here\n", native, {});
    parses("# nothing here\n   # nor here\n", cbp, {});
    parses("", native, {});
    parses("", cbp, {});
    // A '#' right after the pc cuts the direction off.
    rejects("C 40# T\n", native);
    rejects("0x40# 1\n", cbp);
    parses("C 40 T# trailing\n", native, {{0x40, true, true}});
    // An empty pc field, after a separator or not.
    rejects(" 1\n", cbp);
    rejects(" 1\r\n", cbp);
    rejects("\t0\n", cbp);
    rejects("1\n", cbp);
    rejects("C  T\n", native);
    rejects("C T\n", native);
    // Tokens after the direction stay ignored.
    parses("C 40 T extra fields\n", native, {{0x40, true, true}});
    parses("64 1 extra\n", cbp, {{64, true, true}});

    // Inputs the stoull parsers used to misread.
    rejects("-5 1\n", cbp);
    rejects("+5 1\n", cbp);
    rejects("C -40 T\n", native);
    rejects("C 40zz T\n", native);
    rejects("C 40 Tx\n", native);
    // Writer-shaped lines with a bad kind or direction.
    rejects("U 40 N\n", native);
    rejects("C 40 X\n", native);
    rejects("X 40 T\n", native);
    // Lowercase directions are CBP only.
    rejects("C 40 t\n", native);
    rejects("C 40 n\n", native);
    // The kind is a whole field; the old parser split "C40".
    rejects("C 40 T\nC40 T\n", native);

    // Detection reads the first non-comment line only, and a kind
    // letter followed by a CR does not make it native.
    rejects("C\r40 T\n", TextDialect::detect);
    rejects("\vC 40 T\n", TextDialect::detect);
    EXPECT_EQ(parseTextTrace("# c\nC 40 T\n", "d").size(), 1u);
    EXPECT_EQ(parseTextTrace("# c\n64 1\n", "d").size(), 1u);
    EXPECT_GT(tally.accepted, 0);
    EXPECT_GT(tally.rejected, 0);
}

/** CBP text of @p trace's conditional records: decimal pcs, 1/0. */
std::string
decimalCbpText(const Trace &trace)
{
    std::string text;
    for (const BranchRecord &record : trace) {
        if (record.conditional) {
            text += std::to_string(record.pc);
            text += record.taken ? " 1\n" : " 0\n";
        }
    }
    return text;
}

TEST(TextStream, LinesStraddleEveryBlockOffset)
{
    // Writer-shaped text shifted by 0..95 bytes, so every line lands
    // at every offset of the vector pass's 64-byte blocks and of the
    // 80-byte tail it leaves to the scalar walk; each also without
    // its final newline. pcs span 1..16 hex and 1..20 decimal digits.
    Rng rng(0x0ff5);
    const Trace body = makeTextSample(rng, 40);
    std::ostringstream native;
    writeTextTrace(native, body);
    Trace conditionals("t");
    for (const BranchRecord &record : body) {
        if (record.conditional) {
            conditionals.append(record);
        }
    }
    for (const auto &[text, expected] :
         {std::pair{native.str(), &body},
          std::pair{decimalCbpText(body), &std::as_const(conditionals)}}) {
        for (std::size_t shift = 0; shift < 96; ++shift) {
            const std::string prefix = shift == 0 ? ""
                : shift == 1 ? "\n"
                             : "#" + std::string(shift - 2, 'x') + "\n";
            for (const bool final_newline : {true, false}) {
                std::string shifted = prefix + text;
                if (!final_newline) {
                    shifted.pop_back();
                }
                SCOPED_TRACE("shift " + std::to_string(shift) +
                             (final_newline ? "" : ", no final newline"));
                ASSERT_EQ(spanscan::parse(shifted, TextDialect::detect)
                              .records(),
                          expected->records());
                expectStreamsLikeSpanScan(shifted, TextDialect::detect);
            }
        }
    }
}

/**
 * @p record as one well-formed line in a random spelling: mostly
 * writer-shaped, sometimes with CRLF, a tab or a double separator, a
 * trailing blank, field or comment, uppercase hex, a 0x prefix, or
 * leading zeros that stretch the pc to 17..20 digits.
 */
std::string
spelledLine(const BranchRecord &record, bool native, Rng &rng)
{
    static const char *const separators[] = {" ", " ", " ", " ", "\t",
                                             "  "};
    static const char *const tails[] = {"", "", "", "", "", "", " ",
                                        " # note", " extra", "\t"};
    static const char *const endings[] = {"\n", "\n", "\n", "\r\n"};
    static const char *const cbpTaken[] = {"1", "T", "t"};
    static const char *const cbpNotTaken[] = {"0", "N", "n"};
    const auto pick = [&](const auto &options) {
        return std::string(options[rng.uniformInt(std::size(options))]);
    };
    std::ostringstream pc;
    const u64 style = rng.uniformInt(20);
    if (native || style == 0) {
        pc << (style == 0 ? "0x" : "") << (style == 1 ? std::uppercase
                                                       : std::nouppercase)
           << std::hex;
    }
    if (style == 2) {
        pc << std::setfill('0') << std::setw(17 + int(rng.uniformInt(4)));
    }
    pc << record.pc;
    std::string line;
    if (native) {
        line += record.conditional ? "C" : "U";
        line += pick(separators);
    }
    line += pc.str() + pick(separators);
    if (native) {
        line += record.taken ? "T" : "N";
    } else {
        line += pick(record.taken ? cbpTaken : cbpNotTaken);
    }
    return line + pick(tails) + pick(endings);
}

TEST(TextStream, SpelledTextsStreamLikeSpanScan)
{
    // Long texts, mostly writer-shaped, with every accepted odd
    // spelling mixed in, a comment or blank line now and then, and
    // in half the trials one random edit: the vector pass takes the
    // shaped lines and hands every other line to the scalar walk.
    Rng rng(0x57e1);
    Agreement tally;
    for (int trial = 0; trial < 300; ++trial) {
        const bool native = rng.chance(0.5);
        const Trace trace = makeTextSample(rng, 20 + rng.uniformInt(280));
        std::string text;
        for (const BranchRecord &record : trace) {
            if (rng.chance(0.02)) {
                text += rng.chance(0.5) ? "# comment\n" : "\n";
            }
            if (native || record.conditional) {
                text += spelledLine(record, native, rng);
            }
        }
        if (rng.chance(0.2)) {
            text.pop_back(); // no final newline
        }
        if (rng.chance(0.5)) {
            text = mutate(text, rng);
        }
        expectAgreesInEveryDialect(text, tally);
    }
    EXPECT_GT(tally.accepted, 200);
    EXPECT_GT(tally.rejected, 200);
}

TEST(TextWriter, GoldenAgainstStreamWriter)
{
    Rng rng(0x901d);
    // Multi-block traces cross the writer's flush boundary; the
    // extremes pin zero and 16-digit pcs.
    for (const std::size_t records : {0u, 1u, 37u, 9000u}) {
        Trace trace = makeTextSample(rng, records);
        trace.setName("golden trace " + std::to_string(records));
        trace.appendConditional(0, false);
        trace.appendUnconditional(~Addr(0));
        std::ostringstream fast;
        std::ostringstream reference;
        writeTextTrace(fast, trace);
        oracleWriteText(reference, trace);
        ASSERT_EQ(fast.str(), reference.str()) << records << " records";
        EXPECT_EQ(parseTextTrace(fast.str(), "").records(),
                  trace.records());
    }
}

// ------------------------------------------------ BPT1 image mutation

/**
 * A BPT1 image of @p records records: mostly one-byte deltas, so
 * long runs take the decoder's four-record quad path, with two-byte,
 * long and full-width (10-byte varint) deltas mixed in.
 */
std::string
fuzzImage(u64 seed, std::size_t records)
{
    Trace trace("fuzz-" + std::to_string(seed));
    Rng rng(seed);
    Addr pc = 0x40'0000;
    for (std::size_t i = 0; i < records; ++i) {
        const u64 pick = rng.uniformInt(100);
        if (pick < 75) {
            pc += 4 * rng.uniformInt(15) - 28;
        } else if (pick < 90) {
            pc += 4 * rng.uniformInt(4000);
        } else if (pick < 97) {
            pc -= rng.uniformInt(u64(1) << 40);
        } else {
            pc = rng.next();
        }
        if (rng.chance(0.15)) {
            trace.appendUnconditional(pc);
        } else {
            trace.appendConditional(pc, rng.chance(0.6));
        }
    }
    std::ostringstream os;
    writeBinaryTrace(os, trace);
    return os.str();
}

/** Re-emit @p image with its header's record count replaced. */
std::string
withCount(const std::string &image, u64 count)
{
    const u8 *data = reinterpret_cast<const u8 *>(image.data());
    std::size_t at = sizeof(bpt::magic);
    const u64 name_bytes = bpt::readVarint(data, image.size(), at);
    const std::string name = image.substr(at, name_bytes);
    at += name_bytes;
    bpt::readVarint(data, image.size(), at);
    std::ostringstream os;
    bpt::writeHeader(os, name, count);
    os << image.substr(at);
    return os.str();
}

/** The records @p image declares, decoded unmutated. */
u64
declaredCount(const std::string &image)
{
    std::size_t at = 0;
    return bpt::readHeader(reinterpret_cast<const u8 *>(image.data()),
                           image.size(), at)
        .count;
}

/** Where each record of the well-formed @p image starts. */
std::vector<std::size_t>
recordOffsets(const std::string &image)
{
    std::size_t at = 0;
    const bpt::Header header = bpt::readHeader(
        reinterpret_cast<const u8 *>(image.data()), image.size(), at);
    std::vector<std::size_t> offsets;
    BranchRecord record;
    Addr last_pc = 0;
    for (u64 i = 0; i < header.count; ++i) {
        offsets.push_back(at);
        at += bpt::readRecord(image.data() + at, image.size() - at,
                              record, last_pc);
    }
    return offsets;
}

/**
 * One seeded mutation of @p image, whose records start at
 * @p records: one to three byte rewrites, inserts or deletes
 * anywhere; one to three single-bit flips in records' flag or first
 * varint bytes, which is how one bad flag bit (bits 2-7 must be
 * clear) or a stray continuation bit reaches the decoder's fast
 * region; a truncation; or a header record-count edit.
 */
std::string
mutateImage(const std::string &image,
            const std::vector<std::size_t> &records, Rng &rng)
{
    std::string bytes = image;
    const int edits = 1 + static_cast<int>(rng.uniformInt(3));
    switch (rng.uniformInt(6)) {
    case 0:
    case 1:
        for (int e = 0; e < edits; ++e) {
            const std::size_t at = rng.uniformInt(bytes.size());
            const char byte = static_cast<char>(rng.uniformInt(256));
            switch (rng.uniformInt(3)) {
            case 0: bytes[at] = byte; break;
            case 1: bytes.insert(at, 1, byte); break;
            default: bytes.erase(at, 1); break;
            }
        }
        return bytes;
    case 2:
    case 3:
        for (int e = 0; e < edits; ++e) {
            const std::size_t at =
                records[rng.uniformInt(records.size())] +
                rng.uniformInt(2);
            bytes[at] ^= static_cast<char>(1 << rng.uniformInt(8));
        }
        return bytes;
    case 4:
        bytes.resize(rng.uniformInt(bytes.size()));
        return bytes;
    default: {
        const u64 count = declaredCount(image);
        const u64 counts[] = {0,         count - 1, count + 1,
                              count + 2, count + 64, count * 2,
                              count / 2, ~u64(0),   rng.next()};
        return withCount(image,
                         counts[rng.uniformInt(std::size(counts))]);
    }
    }
}

/** Records decoded, or nullopt when decoding raised FatalError. */
using Decoded = std::optional<std::vector<BranchRecord>>;

/** The oracle: the header reader and the checked record decoder. */
Decoded
oracleDecode(const std::string &bytes)
{
    try {
        std::size_t at = 0;
        const bpt::Header header = bpt::readHeader(
            reinterpret_cast<const u8 *>(bytes.data()), bytes.size(), at);
        std::vector<BranchRecord> records(
            static_cast<std::size_t>(header.count));
        Addr last_pc = 0;
        for (BranchRecord &record : records) {
            const std::size_t step = bpt::readRecord(
                bytes.data() + at, bytes.size() - at, record, last_pc);
            if (step == 0) {
                return std::nullopt;
            }
            at += step;
        }
        return records;
    } catch (const FatalError &) {
        return std::nullopt;
    }
}

/** Run @p load; any exception but FatalError escapes the test. */
template <typename Load>
Decoded
attempt(Load load)
{
    try {
        return load().records();
    } catch (const FatalError &) {
        return std::nullopt;
    }
}

/** Scratch files for the file routes, removed on destruction. */
class FuzzFiles
{
  public:
    FuzzFiles()
        : dir(std::filesystem::temp_directory_path() /
              ("bpred_fuzz_" + std::to_string(::getpid())))
    {
        std::filesystem::create_directories(dir);
    }

    ~FuzzFiles() { std::filesystem::remove_all(dir); }

    std::string
    path(const std::string &name) const
    {
        return (dir / name).string();
    }

    std::string
    write(const std::string &name, const std::string &bytes) const
    {
        const std::string file = path(name);
        std::ofstream os(file, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
        EXPECT_TRUE(os.good()) << file;
        return file;
    }

  private:
    std::filesystem::path dir;
};

/** Drain the corpus source for @p path. */
Trace
loadViaCorpusSource(const std::string &path)
{
    return drainSource(*openCorpusSource(path));
}

TEST(TraceFuzz, MutatedImagesDecodeAlikeOnEveryRoute)
{
    FuzzFiles files;
    const bool gz = gzSupported();
    Rng rng(0xb971);
    u64 decoded = 0;
    u64 rejected = 0;
    for (const u64 seed : {u64(11), u64(12), u64(13)}) {
        const std::string image =
            fuzzImage(seed, 1500 + 1000 * std::size_t(seed % 3));
        ASSERT_GT(image.size(), 2048u);
        const std::vector<std::size_t> records = recordOffsets(image);
        for (int trial = 0; trial < 200; ++trial) {
            const std::string input =
                trial == 0 ? image : mutateImage(image, records, rng);
            SCOPED_TRACE("seed " + std::to_string(seed) + " trial " +
                         std::to_string(trial));
            const Decoded want = oracleDecode(input);
            (want ? decoded : rejected) += 1;

            std::istringstream stream(input);
            EXPECT_EQ(attempt([&] { return readBinaryTrace(stream); }),
                      want)
                << "readBinaryTrace";
            const std::string bpt = files.write("input.bpt", input);
            EXPECT_EQ(attempt([&] { return loadViaCorpusSource(bpt); }),
                      want)
                << ".bpt";
            if (gz) {
                const std::string bpt_gz = files.path("input.bpt.gz");
                ASSERT_TRUE(writeGzFile(bpt_gz, input));
                EXPECT_EQ(
                    attempt([&] { return loadViaCorpusSource(bpt_gz); }),
                    want)
                    << ".bpt.gz";
            }
        }
    }
    // Both outcomes must be well represented, or the mutations are
    // too mild (or too wild) to test anything.
    EXPECT_GT(decoded, 60u);
    EXPECT_GT(rejected, 200u);
}

TEST(TraceFuzz, MutatedGzipStreamsDecodeOrFail)
{
    if (!gzSupported()) {
        GTEST_SKIP() << "built without zlib";
    }
    FuzzFiles files;
    const std::string image = fuzzImage(21, 3000);
    const std::vector<BranchRecord> original = *oracleDecode(image);
    std::string compressed;
    {
        const std::string clean = files.path("clean.bpt.gz");
        ASSERT_TRUE(writeGzFile(clean, image));
        std::ifstream is(clean, std::ios::binary);
        compressed = readAllBytes(is);
    }
    Rng rng(0x92f1);
    for (int trial = 0; trial < 150; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        std::string bytes = compressed;
        const std::size_t at = rng.uniformInt(bytes.size());
        const char byte = static_cast<char>(1 + rng.uniformInt(255));
        switch (rng.uniformInt(4)) {
        case 0: bytes[at] = static_cast<char>(bytes[at] ^ byte); break;
        case 1: bytes.insert(at, 1, byte); break;
        case 2: bytes.erase(at, 1); break;
        default: bytes.resize(at); break;
        }
        const std::string path = files.write("mutated.bpt.gz", bytes);
        // The gzip CRC and length trailer catch any change to the
        // inflated bytes, so a stream either fails cleanly or still
        // inflates to the original image.
        const Decoded got =
            attempt([&] { return loadViaCorpusSource(path); });
        if (got) {
            EXPECT_EQ(*got, original);
        }
    }
}

TEST(TraceFuzz, HugeDeclaredCountRejectedQuickly)
{
    // A header declaring 2^60 records with no payload must fail
    // fast with FatalError, not allocate or spin.
    std::string bytes = "BPT1";
    bytes.push_back(4); // name length 4
    bytes += "huge";
    // Varint for a gigantic count.
    for (int i = 0; i < 8; ++i) {
        bytes.push_back(static_cast<char>(0xff));
    }
    bytes.push_back(0x0f);
    std::stringstream stream(bytes);
    EXPECT_THROW(readBinaryTrace(stream), FatalError);
}

TEST(TextStream, MalformedLineBeyondOnePullFailsAlike)
{
    // A bad line more than one replay block (8192 records) in fails
    // with the span oracle's line-numbered error on every scan path
    // and pull size and, through runCorpus, as that file's error row
    // beside a healthy file.
    Rng rng(0xdee9);
    const Trace body = makeTextSample(rng, 11000);
    std::ostringstream native;
    writeTextTrace(native, body);
    const std::string cbp = decimalCbpText(body);
    const u64 cbp_lines = u64(std::count(cbp.begin(), cbp.end(), '\n'));
    ASSERT_GT(cbp_lines, 8192u);
    FuzzFiles files;
    const std::string corpus = files.path("corpus");
    std::filesystem::create_directories(corpus);
    std::string good;
    for (int i = 0; i < 500; ++i) {
        good += "C " + std::to_string(40 + 4 * (i % 7)) + " T\n";
    }
    files.write("corpus/good.txt", good);
    // The writer's two header comment lines precede its records.
    for (const auto &[text, line] :
         {std::pair{native.str() + "C 40zz T\nC 44 T\n",
                    u64(2 + body.size() + 1)},
          std::pair{cbp + "-5 1\n64 1\n", cbp_lines + 1}}) {
        const Outcome want = outcomeOf(
            [&] { return spanscan::parse(text, TextDialect::detect); });
        ASSERT_FALSE(want.trace);
        EXPECT_EQ(want.failedLine, line);
        expectStreamsLikeSpanScan(text, TextDialect::detect);

        files.write("corpus/deep.txt", text);
        CorpusOptions options;
        options.specs = {"gshare:10:8"};
        const CorpusReport report = runCorpus(corpus, options);
        ASSERT_EQ(report.files.size(), 2u);
        const CorpusFileResult &deep = report.files[0];
        EXPECT_EQ(deep.file, "deep.txt");
        EXPECT_EQ(deep.error, want.error);
        EXPECT_EQ(deep.records, 0u);
        EXPECT_TRUE(deep.results.empty());
        EXPECT_TRUE(report.files[1].error.empty());
        EXPECT_EQ(report.files[1].records, 500u);
    }
}

} // namespace
} // namespace bpred
