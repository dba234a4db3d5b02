/**
 * @file
 * bp_lint — repo-specific static analysis for the bpred tree.
 *
 * The predictors' results depend on invariants neither the compiler
 * nor the per-scheme tests check: every test/bench binary registered
 * with CTest, headers following one include-guard convention, no
 * banned library calls on the simulation paths, module layering,
 * and lock and atomic discipline in the concurrent layers. bp_lint
 * walks the source tree and enforces them; it runs as a ctest and
 * as a blocking CI job.
 *
 * The analyzer is deliberately standalone: it links none of the
 * bpred libraries, so a broken tree can still be linted.
 *
 * Suppressions: a line carrying `bp_lint: allow(<rule>)` (normally
 * inside a comment, with a reason) is exempt from <rule> on that
 * line and the next.
 */

#pragma once

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

namespace bplint
{

struct ProjectModel;

/** One rule violation at a source location. */
struct Finding
{
    /** Rule identifier, e.g. "pragma-once". */
    std::string rule;

    /** Path relative to the linted root. */
    std::string file;

    /** 1-based line number (0 when the finding is file-scoped). */
    std::size_t line = 0;

    /** Human-readable description of the violation. */
    std::string message;
};

/** One source file, loaded once and shared by every rule. */
struct SourceFile
{
    /** Path relative to the linted root (generic "/" separators). */
    std::string relative;

    /** File name only, e.g. "factory.cc". */
    std::string name;

    /** Raw contents, split into lines (no trailing newlines). */
    std::vector<std::string> lines;

    /**
     * Contents with comments and string/char literal bodies blanked
     * out, line structure preserved — what identifier-level rules
     * scan so "rand" in a doc comment is not a violation.
     */
    std::vector<std::string> code;

    /** True for .hh/.hpp files. */
    bool isHeader = false;

    /** True for C++ sources or headers (not CMakeLists.txt). */
    bool isCpp = false;

    /** True for files under tests/ (rules exempting tests use it). */
    bool inTests = false;
};

/** The loaded tree a lint run operates on. */
struct RepoTree
{
    std::filesystem::path root;
    std::vector<SourceFile> files;

    /**
     * The shared project model (model.hh), built once by loadTree()
     * after all files are loaded. Rules consume it instead of
     * re-deriving includes, scopes, or scheme-table facts. Held by
     * pointer so lint.hh need not include model.hh; always non-null
     * after loadTree(). Code building a RepoTree by hand must call
     * buildModel() itself before running rules.
     */
    std::shared_ptr<const ProjectModel> model;
};

/** A lint rule: appends findings for the whole tree. */
using RuleFn = void (*)(const RepoTree &, std::vector<Finding> &);

/** Rule registry entry. */
struct RuleInfo
{
    const char *name;
    const char *summary;
    RuleFn run;
};

/** Every rule, in reporting order. */
const std::vector<RuleInfo> &allRules();

/**
 * Load the lintable files under @p root: *.cc, *.cpp, *.hh, *.hpp
 * and CMakeLists.txt, skipping VCS/build/fixture directories (see
 * lint.cc for the exact list).
 *
 * @throws std::runtime_error when @p root is not a directory.
 */
RepoTree loadTree(const std::filesystem::path &root);

/** Run @p rules (default: all) over @p tree. */
std::vector<Finding> runLint(const RepoTree &tree);
std::vector<Finding> runLint(const RepoTree &tree,
                             const std::vector<std::string> &rules);

/**
 * True when line @p line (1-based) of @p file carries a
 * `bp_lint: allow(<rule>)` suppression for @p rule, either on the
 * line itself or on the line directly above it.
 */
bool lineAllows(const SourceFile &file, std::size_t line,
                const std::string &rule);

/**
 * Blank out comments and string/char literal bodies of C++ source
 * @p text, preserving newlines (so line numbers survive).
 */
std::string stripCommentsAndStrings(const std::string &text);

} // namespace bplint
