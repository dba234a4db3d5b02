/**
 * @file
 * Rule "lock-discipline": fields annotated
 * `// bp_lint: guarded_by(<mutex>)` may only be touched inside a
 * scope that constructed a lock on that mutex.
 *
 * The serving engine's correctness hinges on shard-local mutex
 * discipline (predictor_pool.hh documents which mutex covers which
 * fields), and the tracing recorder has exactly one registry mutex.
 * Those contracts lived in comments; this rule machine-checks them
 * over the project model's brace-scope index:
 *
 *  - an *access* is any identifier occurrence of an annotated name
 *    in the declaring file or a file directly including the
 *    declaring header;
 *  - it is *guarded* when some earlier line in the same file
 *    constructs a std::lock_guard / unique_lock / scoped_lock
 *    naming the annotated mutex, and the scope containing that
 *    construction is the access's scope or an ancestor of it
 *    (RAII: the lock is still held anywhere below its scope);
 *  - matches at column 0 are skipped — in this tree's gem5-style
 *    formatting those are function *definitions* of annotated
 *    accessor functions, not accesses;
 *  - documented lock-free paths escape with
 *    `bp_lint: allow(lock-discipline)` plus a reason.
 *
 * This is deliberately per-file and flow-insensitive: it cannot see
 * a lock held by a caller. The escape hatch is the annotation
 * itself — helpers that require a caller-held lock stay
 * unannotated and are covered at their call sites.
 */

#include <algorithm>

#include "bp_lint/lint.hh"
#include "bp_lint/model.hh"

namespace bplint
{

namespace
{

bool
isIdentChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '_';
}

std::size_t
findIdent(const std::string &code, const std::string &name,
          std::size_t from = 0)
{
    std::size_t pos = from;
    while ((pos = code.find(name, pos)) != std::string::npos) {
        const bool left = pos == 0 || !isIdentChar(code[pos - 1]);
        const std::size_t after = pos + name.size();
        const bool right =
            after >= code.size() || !isIdentChar(code[after]);
        if (left && right) {
            return pos;
        }
        ++pos;
    }
    return std::string::npos;
}

/** One lock construction site: the scope it lives in. */
struct LockSite
{
    std::size_t line = 0; // 0-based
    int scope = -1;
};

/**
 * Collect every line constructing a lock on @p mutexName:
 * lock_guard/unique_lock/scoped_lock plus the mutex identifier on
 * the same stripped line.
 */
std::vector<LockSite>
lockSites(const SourceFile &file, const ScopeIndex &scopes,
          const std::string &mutexName)
{
    std::vector<LockSite> sites;
    for (std::size_t i = 0; i < file.code.size(); ++i) {
        const std::string &code = file.code[i];
        const std::size_t at =
            std::min({code.find("lock_guard"),
                      code.find("unique_lock"),
                      code.find("scoped_lock")});
        if (at == std::string::npos) {
            continue;
        }
        if (findIdent(code, mutexName) == std::string::npos) {
            continue;
        }
        sites.push_back({i, scopes.innermostAt(i, at)});
    }
    return sites;
}

} // namespace

void
ruleLockDiscipline(const RepoTree &tree,
                   std::vector<Finding> &findings)
{
    const ProjectModel &model = *tree.model;

    for (const GuardedEntity &entity : model.guardedEntities) {
        for (std::size_t f = 0; f < tree.files.size(); ++f) {
            const SourceFile &file = tree.files[f];
            const FileModel &artifacts = model.files[f];
            if (!file.isCpp ||
                !usesHeader(file, artifacts, entity.file)) {
                continue;
            }
            const std::vector<LockSite> sites =
                lockSites(file, artifacts.scopes,
                          entity.mutexName);

            for (std::size_t i = 0; i < file.code.size(); ++i) {
                // The annotated declaration itself is not an
                // access.
                if (file.relative == entity.file &&
                    (i + 1 == entity.line || i + 2 == entity.line)) {
                    continue;
                }
                std::size_t col = 0;
                bool flagged = false;
                while (!flagged &&
                       (col = findIdent(file.code[i], entity.name,
                                        col)) !=
                           std::string::npos) {
                    const std::size_t at = col;
                    col += entity.name.size();
                    if (at == 0) {
                        continue; // gem5-style definition line
                    }
                    if (lineAllows(file, i + 1,
                                   "lock-discipline")) {
                        continue;
                    }
                    const int scope =
                        artifacts.scopes.innermostAt(i, at);
                    bool guarded = false;
                    for (const LockSite &site : sites) {
                        if (site.line <= i &&
                            artifacts.scopes.isAncestorOrSelf(
                                site.scope, scope) &&
                            // A lock at top level (-1) guards
                            // nothing: -1 means "not in any
                            // scope", not "global lock".
                            site.scope >= 0) {
                            guarded = true;
                            break;
                        }
                    }
                    if (!guarded) {
                        findings.push_back(
                            {"lock-discipline", file.relative,
                             i + 1,
                             "'" + entity.name +
                                 "' is guarded_by(" +
                                 entity.mutexName +
                                 ") (declared at " + entity.file +
                                 ") but this access is outside "
                                 "any scope holding it"});
                        flagged = true;
                    }
                }
            }
        }
    }
}

} // namespace bplint
