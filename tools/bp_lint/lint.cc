#include "bp_lint/lint.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bp_lint/model.hh"
#include "bp_lint/rules.hh"

namespace bplint
{

const std::vector<RuleInfo> &
allRules()
{
    static const std::vector<RuleInfo> rules = {
        {"cmake-registration",
         "every test_*.cc/bench_*.cc is registered in its "
         "CMakeLists.txt",
         ruleCmakeRegistration},
        {"pragma-once",
         "headers use #pragma once, never BPRED_* guards",
         rulePragmaOnce},
        {"banned-identifier",
         "no rand/strcpy/atoi-style calls or raw new outside "
         "factories",
         ruleBannedIdentifier},
        {"alloc-untrusted",
         "reserve()/resize() in untrusted-input layers "
         "(src/trace, src/sim/corpus*) carry a "
         "'bp_lint: allow(reserve-untrusted)' justification",
         ruleAllocUntrusted},
        {"simd-isolation",
         "vector intrinsics only in *_simd files, under "
         "#if BPRED_HAVE_AVX2",
         ruleSimdIsolation},
        {"layering",
         "#include edges follow the declared module DAG "
         "(support -> trace -> predictors -> core -> ... -> serve)",
         ruleLayering},
        {"scheme-coverage",
         "every factory scheme has a block kernel or a "
         "scalar-only waiver",
         ruleSchemeCoverage},
        {"lock-discipline",
         "fields annotated guarded_by(<mutex>) are only touched "
         "inside a scope holding that mutex",
         ruleLockDiscipline},
        {"atomic-order",
         "std::atomic operations in src/support and src/serve name "
         "an explicit memory_order",
         ruleAtomicOrder},
    };
    return rules;
}

namespace
{

namespace fs = std::filesystem;

/**
 * Directories never descended into: VCS state, build trees, editor
 * state, and lint fixtures (which contain violations on purpose —
 * test_bp_lint lints them explicitly).
 */
bool
skipDirectory(const std::string &name)
{
    return name == ".git" || name == ".claude" ||
        name == "fixtures" || name.rfind("build", 0) == 0;
}

bool
hasSuffix(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
        text.compare(text.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string line;
    std::istringstream stream(text);
    while (std::getline(stream, line)) {
        lines.push_back(line);
    }
    return lines;
}

/**
 * When text[i] is the opening '"' of a raw string literal
 * (R"delim(...)delim", optionally with a u8/u/U/L encoding prefix),
 * return the index one past the closing '"'; otherwise return 0.
 * Unterminated raw strings swallow the rest of the file, matching
 * compiler behaviour.
 */
std::size_t
rawStringEnd(const std::string &text, std::size_t i)
{
    if (i == 0 || text[i] != '"' || text[i - 1] != 'R') {
        return 0;
    }
    // The char before the R / u8R / uR / UR / LR prefix must not
    // extend an identifier (FOOBAR"..." is not a raw string).
    std::size_t start = i - 1;
    if (start >= 2 && text[start - 2] == 'u' &&
        text[start - 1] == '8') {
        start -= 2;
    } else if (start >= 1 &&
               (text[start - 1] == 'u' || text[start - 1] == 'U' ||
                text[start - 1] == 'L')) {
        start -= 1;
    }
    if (start > 0) {
        const char before = text[start - 1];
        if (std::isalnum(static_cast<unsigned char>(before)) ||
            before == '_') {
            return 0;
        }
    }
    // Delimiter: at most 16 chars between '"' and '(', none of
    // which may be a space, paren, backslash, quote, or newline.
    const std::size_t open = text.find('(', i + 1);
    if (open == std::string::npos || open - i - 1 > 16) {
        return 0;
    }
    for (std::size_t j = i + 1; j < open; ++j) {
        const char c = text[j];
        if (c == ' ' || c == ')' || c == '\\' || c == '"' ||
            c == '\n' || c == '\t') {
            return 0;
        }
    }
    const std::string terminator =
        ")" + text.substr(i + 1, open - i - 1) + "\"";
    const std::size_t end = text.find(terminator, open + 1);
    if (end == std::string::npos) {
        return text.size();
    }
    return end + terminator.size();
}

} // namespace

std::string
stripCommentsAndStrings(const std::string &text)
{
    std::string out;
    out.reserve(text.size());

    enum class State
    {
        Code,
        LineComment,
        BlockComment,
        String,
        Char
    };
    State state = State::Code;

    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char next = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (state) {
          case State::Code:
            if (c == '/' && next == '/') {
                state = State::LineComment;
                out += "  ";
                ++i;
            } else if (c == '/' && next == '*') {
                state = State::BlockComment;
                out += "  ";
                ++i;
            } else if (c == '"' && rawStringEnd(text, i) != 0) {
                // Raw string literal: blank the whole body
                // (newlines preserved), keeping the outer quotes so
                // literal-shape rules still see a string here.
                const std::size_t end = rawStringEnd(text, i);
                out += '"';
                for (std::size_t j = i + 1; j < end; ++j) {
                    out += text[j] == '\n' ? '\n' : ' ';
                }
                if (end > i + 1 && end <= text.size() &&
                    text[end - 1] == '"') {
                    out.back() = '"';
                }
                i = end - 1;
            } else if (c == '"') {
                state = State::String;
                out += '"';
            } else if (c == '\'') {
                // An apostrophe directly after an identifier
                // character is a digit separator (1'000'000), not
                // a char literal.
                const bool separator = !out.empty() &&
                    (std::isalnum(static_cast<unsigned char>(
                         out.back())) ||
                     out.back() == '_');
                if (separator) {
                    out += '\'';
                } else {
                    state = State::Char;
                    out += '\'';
                }
            } else {
                out += c;
            }
            break;
          case State::LineComment:
            if (c == '\n') {
                state = State::Code;
                out += '\n';
            } else {
                out += ' ';
            }
            break;
          case State::BlockComment:
            if (c == '*' && next == '/') {
                state = State::Code;
                out += "  ";
                ++i;
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
          case State::String:
            if (c == '\\' && next != '\0' && next != '\n') {
                out += "  ";
                ++i;
            } else if (c == '"') {
                state = State::Code;
                out += '"';
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
          case State::Char:
            if (c == '\\' && next != '\0' && next != '\n') {
                out += "  ";
                ++i;
            } else if (c == '\'') {
                state = State::Code;
                out += '\'';
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
        }
    }
    return out;
}

bool
lineAllows(const SourceFile &file, std::size_t line,
           const std::string &rule)
{
    const std::string needle = "bp_lint: allow(" + rule + ")";
    if (line < 1 || line > file.lines.size()) {
        return false;
    }
    if (file.lines[line - 1].find(needle) != std::string::npos) {
        return true;
    }
    // Walk up through the contiguous comment block directly above
    // the flagged line, so multi-line justifications work.
    for (std::size_t i = line - 1; i >= 1; --i) {
        const std::string &above = file.lines[i - 1];
        const std::size_t text = above.find_first_not_of(" \t");
        if (text == std::string::npos ||
            (above.compare(text, 2, "//") != 0 &&
             above.compare(text, 1, "*") != 0)) {
            break;
        }
        if (above.find(needle) != std::string::npos) {
            return true;
        }
    }
    return false;
}

RepoTree
loadTree(const fs::path &root)
{
    if (!fs::is_directory(root)) {
        throw std::runtime_error("bp_lint: not a directory: " +
                                 root.string());
    }
    RepoTree tree;
    tree.root = fs::canonical(root);

    auto options = fs::directory_options::skip_permission_denied;
    for (auto it = fs::recursive_directory_iterator(tree.root,
                                                    options);
         it != fs::recursive_directory_iterator(); ++it) {
        const fs::path &path = it->path();
        if (it->is_directory()) {
            if (skipDirectory(path.filename().string())) {
                it.disable_recursion_pending();
            }
            continue;
        }
        if (!it->is_regular_file()) {
            continue;
        }
        const std::string name = path.filename().string();
        const bool is_header =
            hasSuffix(name, ".hh") || hasSuffix(name, ".hpp");
        const bool is_source =
            hasSuffix(name, ".cc") || hasSuffix(name, ".cpp");
        if (name != "CMakeLists.txt" && !is_header && !is_source) {
            continue;
        }

        std::ifstream in(path, std::ios::binary);
        std::ostringstream contents;
        contents << in.rdbuf();
        const std::string text = contents.str();

        SourceFile file;
        file.relative =
            fs::relative(path, tree.root).generic_string();
        file.name = name;
        file.lines = splitLines(text);
        file.isHeader = is_header;
        file.isCpp = is_header || is_source;
        if (file.isCpp) {
            file.code = splitLines(stripCommentsAndStrings(text));
            file.code.resize(file.lines.size());
        }
        file.inTests = file.relative.rfind("tests/", 0) == 0;
        tree.files.push_back(std::move(file));
    }

    std::sort(tree.files.begin(), tree.files.end(),
              [](const SourceFile &a, const SourceFile &b) {
                  return a.relative < b.relative;
              });
    tree.model = std::make_shared<ProjectModel>(buildModel(tree));
    return tree;
}

std::vector<Finding>
runLint(const RepoTree &tree)
{
    return runLint(tree, {});
}

std::vector<Finding>
runLint(const RepoTree &tree, const std::vector<std::string> &rules)
{
    std::vector<Finding> findings;
    for (const RuleInfo &rule : allRules()) {
        if (!rules.empty() &&
            std::find(rules.begin(), rules.end(), rule.name) ==
                rules.end()) {
            continue;
        }
        rule.run(tree, findings);
    }
    return findings;
}

} // namespace bplint
