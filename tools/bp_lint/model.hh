/**
 * @file
 * The bp_lint project model: per-file artifacts computed once per
 * lint run and shared by every rule.
 *
 * The model is one pass over the loaded tree, so no rule re-derives
 * what it needs from the raw lines or is limited to one file. It
 * produces:
 *
 *  - an include list per file (quoted and angled, with line
 *    numbers), which the layering rule checks against the declared
 *    module DAG and the lock rule uses to scope annotation checks;
 *  - a brace-scope index per file (every `{...}` span with its
 *    parent), the skeleton for the lock-discipline and
 *    scheme-coverage scope walks;
 *  - a class index over the whole tree (name, bases, body span,
 *    declaring file), so rules can ask "does this class or any
 *    ancestor declare replayBlock()?" across files;
 *  - scheme-table facts parsed from src/sim/factory.cc: the
 *    listSchemes() entries, the makePredictor() branch -> class
 *    mapping, and scalar-only waivers;
 *  - every `bp_lint: guarded_by(<mutex>)` annotation in the tree,
 *    resolved to the field or function it is attached to.
 *
 * Everything here is deliberately heuristic: brace matching and
 * identifier scans over comment-stripped code, tuned to this repo's
 * layout conventions, cheap enough to run on every commit. The
 * fixtures in tests/fixtures/lint/ pin the heuristics in both
 * directions.
 */

#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bp_lint/lint.hh"

namespace bplint
{

/** One #include directive. */
struct IncludeRef
{
    /** 1-based line of the directive. */
    std::size_t line = 0;

    /** Include path as written, e.g. "serve/predictor_pool.hh". */
    std::string path;

    /** True for <...> system includes. */
    bool angled = false;
};

/** One brace-delimited scope in a file's stripped code. */
struct Scope
{
    /** 0-based position of the opening '{'. */
    std::size_t openLine = 0;
    std::size_t openCol = 0;

    /** 0-based position of the matching '}'. */
    std::size_t closeLine = 0;
    std::size_t closeCol = 0;

    /** Index of the enclosing scope, -1 at top level. */
    int parent = -1;
};

/**
 * All scopes of one file, in opening order. Unbalanced braces
 * (mid-edit files) simply truncate the index; rules degrade to
 * "not guarded" rather than crash.
 */
struct ScopeIndex
{
    std::vector<Scope> scopes;

    /**
     * Index of the innermost scope containing 0-based (line, col),
     * or -1 when the position is at top level.
     */
    int innermostAt(std::size_t line, std::size_t col) const;

    /** True when @p ancestor is @p scope or one of its parents. */
    bool isAncestorOrSelf(int ancestor, int scope) const;
};

/** One class/struct definition with its body span. */
struct ClassInfo
{
    std::string name;

    /** Base-class names (last identifier of each base specifier). */
    std::vector<std::string> bases;

    /** Declaring file (relative path) and 1-based line. */
    std::string file;
    std::size_t line = 0;

    /** 0-based body span [beginLine, endLine]. */
    std::size_t beginLine = 0;
    std::size_t endLine = 0;
};

/** One factory scheme with the classes its branch constructs. */
struct SchemeFact
{
    std::string name;

    /** 1-based line of the table entry in factory.cc. */
    std::size_t line = 0;

    /**
     * Classes make_unique'd in this scheme's makePredictor()
     * branch, in textual order — the first is the outermost
     * (primary) type the factory returns for the scheme.
     */
    std::vector<std::string> classes;
};

/** One `bp_lint: guarded_by(<mutex>)` annotation. */
struct GuardedEntity
{
    /** The annotated field or function name. */
    std::string name;

    /** The mutex (field or accessor) that must be held. */
    std::string mutexName;

    /** Declaring file (relative path) and 1-based line. */
    std::string file;
    std::size_t line = 0;
};

/** Per-file artifacts, parallel to RepoTree::files. */
struct FileModel
{
    std::vector<IncludeRef> includes;
    ScopeIndex scopes;
};

/** The shared model every rule consumes. */
struct ProjectModel
{
    /** files[i] describes tree.files[i]. */
    std::vector<FileModel> files;

    /** Every class definition in the tree, in file order. */
    std::vector<ClassInfo> classes;

    /** name -> index into classes (first definition wins). */
    std::map<std::string, std::size_t> classByName;

    /** True when src/sim/factory.cc was found in the tree. */
    bool hasFactory = false;

    /** Relative path of the factory file (when hasFactory). */
    std::string factoryFile;

    /** listSchemes() table entries, in table order. */
    std::vector<SchemeFact> schemes;

    /** bp_lint: scalar-only(<scheme>) waivers -> 1-based line. */
    std::map<std::string, std::size_t> scalarOnlyWaivers;

    /** Every guarded_by annotation in the tree. */
    std::vector<GuardedEntity> guardedEntities;

    /**
     * True when the class named @p name, or any transitive base
     * reachable through classByName, mentions the identifier
     * @p needle in its body or defines "<class>::<needle>" outside
     * it; the root interface class "Predictor" is excluded (its
     * defaults are what overrides exist to replace).
     */
    bool hierarchyMentions(const RepoTree &tree,
                           const std::string &name,
                           const std::string &needle) const;
};

/**
 * Build the model for @p tree. Called once by loadTree(); rules
 * reach it through RepoTree::model.
 */
ProjectModel buildModel(const RepoTree &tree);

/**
 * True when @p file (its relative path) is @p headerRelative or
 * directly includes it (include path suffix match, so
 * "serve/predictor_pool.hh" matches "src/serve/predictor_pool.hh").
 */
bool usesHeader(const SourceFile &file, const FileModel &artifacts,
                const std::string &headerRelative);

} // namespace bplint
