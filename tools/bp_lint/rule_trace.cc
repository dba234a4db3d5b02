/**
 * @file
 * Rule "trace-literal": TRACE_SCOPE / TRACE_INSTANT / TRACE_COUNTER
 * category and name arguments must be string literals, and so must
 * those of a span declared by hand as `trace::Scope span(...)` (the
 * form that reaches Scope::setArgs).
 *
 * The tracing hot path (support/tracing.hh) stores those arguments
 * as raw `const char *` without copying, so anything that is not a
 * literal is a lifetime bug waiting to happen — and formatting a
 * name at the call site would put an allocation on a path whose
 * contract is "one branch when disabled". The macros already force
 * literals at compile time via `"" name` concatenation; this rule
 * catches the violation at lint time, with a readable message,
 * before a build is even attempted.
 *
 * Matching runs over comment/string-stripped code (literal bodies
 * are blanked but their quote delimiters survive), so the check is
 * simply: each of the first two arguments starts with '"'.
 * `#define` lines and their continuations are skipped — the macro
 * definitions themselves pass through their parameters unquoted by
 * construction.
 */

#include "bp_lint/lint.hh"

namespace bplint
{

namespace
{

/**
 * The checked call shapes. A macro's argument list is the next
 * '(' after its name; a declared Scope's comes after an optional
 * variable name and must open right there, so `trace::Scope &`
 * parameters and `trace::Scope::` qualifiers stay silent.
 */
struct TraceCall
{
    const char *name;
    bool declaration;
};

constexpr TraceCall traceCalls[] = {
    {"TRACE_SCOPE", false},
    {"TRACE_INSTANT", false},
    {"TRACE_COUNTER", false},
    {"trace::Scope", true},
};

bool
isIdentChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '_';
}

/**
 * The stripped code of lines [line, line+window) joined into one
 * string, so a macro invocation whose argument list wraps across
 * lines can still be parsed from its first line.
 */
std::string
joinedCode(const SourceFile &file, std::size_t index,
           std::size_t window)
{
    std::string joined;
    for (std::size_t i = index;
         i < file.code.size() && i < index + window; ++i) {
        joined += file.code[i];
        joined += ' ';
    }
    return joined;
}

/** Skip spaces/tabs from @p pos; npos at end of text. */
std::size_t
skipBlanks(const std::string &text, std::size_t pos)
{
    return text.find_first_not_of(" \t", pos);
}

/**
 * The position of the '(' or '{' that opens a declared Scope's
 * arguments, searching from @p pos right after the type name; npos
 * when no argument list follows.
 */
std::size_t
declarationArgs(const std::string &text, std::size_t pos)
{
    pos = skipBlanks(text, pos);
    while (pos != std::string::npos && pos < text.size() &&
           isIdentChar(text[pos])) {
        ++pos;
    }
    pos = skipBlanks(text, pos);
    if (pos == std::string::npos ||
        (text[pos] != '(' && text[pos] != '{')) {
        return std::string::npos;
    }
    return pos;
}

/**
 * True when the argument starting at @p pos is a string literal,
 * advancing @p pos past it and the following comma when one exists.
 * On success, @p more says whether a comma (another argument)
 * followed.
 */
bool
consumeLiteralArg(const std::string &text, std::size_t &pos,
                  bool &more)
{
    pos = skipBlanks(text, pos);
    if (pos == std::string::npos || text[pos] != '"') {
        return false;
    }
    const std::size_t close = text.find('"', pos + 1);
    if (close == std::string::npos) {
        return false;
    }
    pos = skipBlanks(text, close + 1);
    more = pos != std::string::npos && text[pos] == ',';
    if (more) {
        ++pos;
    }
    return true;
}

} // namespace

void
ruleTraceLiteral(const RepoTree &tree, std::vector<Finding> &findings)
{
    for (const SourceFile &file : tree.files) {
        if (!file.isCpp) {
            continue;
        }
        bool in_define = false;
        for (std::size_t i = 0; i < file.code.size(); ++i) {
            const std::string &code = file.code[i];
            const std::size_t line_no = i + 1;
            const bool define_line = in_define ||
                code.find("#define") != std::string::npos;
            const std::size_t last = code.find_last_not_of(" \t");
            in_define = define_line && last != std::string::npos &&
                code[last] == '\\';
            if (define_line) {
                continue; // the macro definitions themselves
            }
            for (const TraceCall &call : traceCalls) {
                std::size_t pos = 0;
                const std::size_t len = std::string(call.name).size();
                while ((pos = code.find(call.name, pos)) !=
                       std::string::npos) {
                    const std::size_t at = pos;
                    pos += len;
                    // Identifier boundaries: reject TRACE_SCOPED,
                    // X_TRACE_SCOPE and trace::ScopeGuard.
                    if ((at > 0 && isIdentChar(code[at - 1])) ||
                        (at + len < code.size() &&
                         isIdentChar(code[at + len]))) {
                        continue;
                    }
                    if (lineAllows(file, line_no, "trace-literal")) {
                        continue;
                    }
                    // Parse "(<literal>, <literal>" from the joined
                    // next few lines, starting after the name.
                    const std::string joined = joinedCode(file, i, 4);
                    std::size_t cursor = call.declaration
                        ? declarationArgs(joined, at + len)
                        : joined.find('(', at + len);
                    if (cursor == std::string::npos) {
                        continue; // not an invocation
                    }
                    ++cursor;
                    bool more = false;
                    const bool category_ok =
                        consumeLiteralArg(joined, cursor, more);
                    const bool name_ok = category_ok && more &&
                        consumeLiteralArg(joined, cursor, more);
                    if (!category_ok || !name_ok) {
                        findings.push_back(
                            {"trace-literal", file.relative, line_no,
                             std::string(call.name) +
                                 " category/name must be string "
                                 "literals (stored as raw const "
                                 "char*; no formatting on the hot "
                                 "path)"});
                    }
                }
            }
        }
    }
}

} // namespace bplint
