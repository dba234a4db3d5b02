#include "bp_lint/model.hh"

#include <algorithm>

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

/** Position of identifier @p name in @p code from @p from, at
 * identifier boundaries on both sides; npos when absent. */
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

/** Parse #include directives from one stripped line. */
void
parseInclude(const std::string &code, std::size_t line_no,
             std::vector<IncludeRef> &out)
{
    const std::size_t hash = code.find_first_not_of(" \t");
    if (hash == std::string::npos || code[hash] != '#') {
        return;
    }
    const std::size_t kw = code.find("include", hash + 1);
    if (kw == std::string::npos) {
        return;
    }
    const std::size_t open =
        code.find_first_of("\"<", kw + std::string("include").size());
    if (open == std::string::npos) {
        return;
    }
    const bool angled = code[open] == '<';
    const std::size_t close =
        code.find(angled ? '>' : '"', open + 1);
    if (close == std::string::npos) {
        return;
    }
    out.push_back({line_no, code.substr(open + 1, close - open - 1),
                   angled});
}

/**
 * Build the scope index of one file by matching braces over the
 * stripped code (strings/comments are already blanked, so every
 * '{' is structural). Note: quoted include paths are blanked
 * too, but parseInclude reads them before this runs — include
 * paths come from the raw lines, see buildFileModel.
 */
ScopeIndex
buildScopes(const SourceFile &file)
{
    ScopeIndex index;
    std::vector<int> stack;
    for (std::size_t line = 0; line < file.code.size(); ++line) {
        const std::string &code = file.code[line];
        for (std::size_t col = 0; col < code.size(); ++col) {
            const char c = code[col];
            if (c == '{') {
                Scope scope;
                scope.openLine = line;
                scope.openCol = col;
                scope.closeLine = file.code.size();
                scope.closeCol = 0;
                scope.parent =
                    stack.empty() ? -1 : stack.back();
                stack.push_back(
                    static_cast<int>(index.scopes.size()));
                index.scopes.push_back(scope);
            } else if (c == '}' && !stack.empty()) {
                Scope &scope = index.scopes[stack.back()];
                scope.closeLine = line;
                scope.closeCol = col;
                stack.pop_back();
            }
        }
    }
    return index;
}

/**
 * Collect class/struct definitions from one file: `class X final :
 * public Y { ... }`. Forward declarations (`;` before `{`) are
 * skipped. The body span comes from the scope index.
 */
void
collectClasses(const SourceFile &file, const FileModel &artifacts,
               std::vector<ClassInfo> &out)
{
    for (std::size_t i = 0; i < file.code.size(); ++i) {
        const std::string &code = file.code[i];
        for (const char *keyword : {"class", "struct"}) {
            std::size_t at = findIdent(code, keyword);
            if (at == std::string::npos) {
                continue;
            }
            // The head may wrap lines: join a small window.
            std::string head;
            std::size_t head_line = i;
            for (std::size_t j = i; j < file.code.size() &&
                 j < i + 6; ++j) {
                head += (j == i)
                    ? file.code[j].substr(at)
                    : file.code[j];
                head += ' ';
                if (file.code[j].find_first_of("{;") !=
                    std::string::npos && j >= i) {
                    break;
                }
            }
            const std::size_t body = head.find('{');
            const std::size_t semi = head.find(';');
            if (body == std::string::npos ||
                (semi != std::string::npos && semi < body)) {
                continue; // forward declaration or pointer member
            }

            // Name: first identifier after the keyword (skipping
            // attribute brackets would be overkill for this tree).
            std::size_t pos = std::string(keyword).size();
            while (pos < head.size() && !isIdentChar(head[pos])) {
                if (head[pos] == '{' || head[pos] == ':') {
                    pos = head.size(); // anonymous or malformed
                }
                ++pos;
            }
            std::size_t end = pos;
            while (end < head.size() && isIdentChar(head[end])) {
                ++end;
            }
            if (pos >= head.size() || pos == end || pos >= body) {
                continue;
            }

            ClassInfo info;
            info.name = head.substr(pos, end - pos);
            info.file = file.relative;
            info.line = head_line + 1;

            // Bases: identifiers between ':' and '{', keeping the
            // last complete identifier of each comma-separated
            // specifier ("public bpred::Predictor" -> "Predictor").
            const std::size_t colon = head.find(':', end);
            if (colon != std::string::npos && colon < body &&
                (colon + 1 >= head.size() ||
                 head[colon + 1] != ':')) {
                std::string base;
                std::string last;
                for (std::size_t p = colon + 1; p <= body; ++p) {
                    const char c = p < body ? head[p] : ',';
                    if (isIdentChar(c)) {
                        base += c;
                        continue;
                    }
                    if (!base.empty() && base != "public" &&
                        base != "private" && base != "protected" &&
                        base != "virtual" && base != "final") {
                        last = base;
                    }
                    base.clear();
                    if (c == ',') {
                        if (!last.empty()) {
                            info.bases.push_back(last);
                        }
                        last.clear();
                    }
                }
            }

            // Body span: the scope whose '{' matches `body`. Map
            // the joined-head offset back to (line, col).
            std::size_t brace_line = head_line;
            std::size_t brace_col = 0;
            {
                std::size_t consumed = 0;
                bool found = false;
                for (std::size_t j = i; j < file.code.size() &&
                     j < i + 6 && !found; ++j) {
                    const std::string part = (j == i)
                        ? file.code[j].substr(at)
                        : file.code[j];
                    if (body < consumed + part.size() + 1) {
                        brace_line = j;
                        brace_col = body - consumed +
                            (j == i ? at : 0);
                        found = true;
                    }
                    consumed += part.size() + 1;
                }
                if (!found) {
                    continue;
                }
            }
            for (const Scope &scope : artifacts.scopes.scopes) {
                if (scope.openLine == brace_line &&
                    scope.openCol == brace_col) {
                    info.beginLine = scope.openLine;
                    info.endLine = scope.closeLine;
                    break;
                }
            }
            if (info.endLine >= info.beginLine &&
                info.endLine > 0) {
                out.push_back(std::move(info));
            }
        }
    }
}

/**
 * Parse one `bp_lint: guarded_by(<mutex>)` annotation target: the
 * declared name on the stripped line — the identifier directly
 * before '(' when the line declares a function, otherwise the last
 * identifier before the first of '=', '{' or ';'.
 */
std::string
declaredEntity(const std::string &code)
{
    std::size_t stop = code.find_first_of("=({;");
    if (stop == std::string::npos) {
        stop = code.size();
    }
    std::size_t end = stop;
    while (end > 0 &&
           (code[end - 1] == ' ' || code[end - 1] == '\t')) {
        --end;
    }
    std::size_t begin = end;
    while (begin > 0 && isIdentChar(code[begin - 1])) {
        --begin;
    }
    return code.substr(begin, end - begin);
}

/** Collect guarded_by annotations from one file's raw lines. */
void
collectGuarded(const SourceFile &file,
               std::vector<GuardedEntity> &out)
{
    static const std::string marker = "bp_lint: guarded_by(";
    for (std::size_t i = 0; i < file.lines.size(); ++i) {
        const std::size_t at = file.lines[i].find(marker);
        if (at == std::string::npos) {
            continue;
        }
        const std::size_t open = at + marker.size();
        const std::size_t close = file.lines[i].find(')', open);
        if (close == std::string::npos) {
            continue;
        }
        GuardedEntity entity;
        entity.mutexName =
            file.lines[i].substr(open, close - open);
        // Documentation uses guarded_by(<mutex>) placeholders; a
        // real annotation names an identifier.
        if (entity.mutexName.empty() ||
            !std::all_of(entity.mutexName.begin(),
                         entity.mutexName.end(), isIdentChar)) {
            continue;
        }
        entity.file = file.relative;
        entity.line = i + 1;
        // The annotation sits on the declaration line or on the
        // line directly above it.
        entity.name =
            i < file.code.size() ? declaredEntity(file.code[i]) : "";
        if (entity.name.empty() && i + 1 < file.code.size()) {
            entity.name = declaredEntity(file.code[i + 1]);
            entity.line = i + 2;
        }
        if (!entity.name.empty() && !entity.mutexName.empty()) {
            out.push_back(std::move(entity));
        }
    }
}

/**
 * Parse factory facts: the listSchemes() table (entry names +
 * lines), scalar-only waivers, and the makePredictor() branch ->
 * make_unique<Class> mapping.
 */
void
parseFactory(const RepoTree &tree, std::size_t factory_index,
             ProjectModel &model)
{
    const SourceFile &factory = tree.files[factory_index];
    const FileModel &artifacts = model.files[factory_index];
    model.hasFactory = true;
    model.factoryFile = factory.relative;

    // --- listSchemes() table: first string literal of each
    // top-level brace entry.
    bool armed = false;
    bool in_table = false;
    bool done = false;
    int depth = 0;
    char prev = '\0';
    for (std::size_t i = 0; i < factory.code.size() && !done; ++i) {
        const std::string &code = factory.code[i];
        const std::string &raw = factory.lines[i];
        if (!armed) {
            if (code.find("listSchemes()") == std::string::npos) {
                continue;
            }
            armed = true;
        }
        for (std::size_t p = 0; p < code.size(); ++p) {
            const char c = code[p];
            if (!in_table) {
                if (c == '{' && prev == '=') {
                    in_table = true;
                    depth = 0;
                } else if (c != ' ' && c != '\t') {
                    prev = c;
                }
                continue;
            }
            if (c == '{') {
                if (depth == 0 && p + 1 < code.size() &&
                    code[p + 1] == '"') {
                    const std::size_t close = code.find('"', p + 2);
                    if (close != std::string::npos &&
                        close < raw.size()) {
                        SchemeFact fact;
                        fact.name =
                            raw.substr(p + 2, close - p - 2);
                        fact.line = i + 1;
                        model.schemes.push_back(std::move(fact));
                    }
                }
                ++depth;
            } else if (c == '}') {
                if (depth == 0) {
                    done = true;
                    break;
                }
                --depth;
            }
        }
    }

    // --- declared waivers (raw lines: they live in comments).
    static const std::string marker = "bp_lint: scalar-only(";
    for (std::size_t i = 0; i < factory.lines.size(); ++i) {
        const std::string &line = factory.lines[i];
        const std::size_t at = line.find(marker);
        if (at != std::string::npos) {
            const std::size_t open = at + marker.size();
            const std::size_t close = line.find(')', open);
            if (close != std::string::npos) {
                model.scalarOnlyWaivers
                    [line.substr(open, close - open)] = i + 1;
            }
        }
    }

    // --- makePredictor() branches: for every make_unique<Class>
    // inside the factory, attribute Class to the schemes compared
    // in the innermost enclosing if-condition that mentions
    // `scheme ==`. Conditions are read from the text directly
    // before the scope's opening brace (same line plus up to three
    // lines above, enough for this tree's clang-format wrapping).
    const ScopeIndex &scopes = artifacts.scopes;
    auto schemesControlling = [&](int scope_index) {
        std::vector<std::string> names;
        if (scope_index < 0) {
            return names;
        }
        const Scope &scope = scopes.scopes[scope_index];
        std::string cond;
        const std::size_t first =
            scope.openLine >= 3 ? scope.openLine - 3 : 0;
        for (std::size_t j = first; j < scope.openLine; ++j) {
            cond += factory.code[j];
            cond += ' ';
        }
        cond += factory.code[scope.openLine].substr(
            0, scope.openCol);
        // Collect every scheme == "<name>" comparison; the literal
        // body is blanked in stripped code, so read names from the
        // raw lines by re-scanning them over the same window.
        std::string raw;
        for (std::size_t j = first; j < scope.openLine; ++j) {
            raw += factory.lines[j];
            raw += ' ';
        }
        raw += factory.lines[scope.openLine].substr(
            0, std::min(scope.openCol,
                        factory.lines[scope.openLine].size()));
        if (cond.find("scheme ==") == std::string::npos &&
            cond.find("scheme==") == std::string::npos) {
            return names;
        }
        std::size_t pos = 0;
        while ((pos = raw.find("scheme", pos)) !=
               std::string::npos) {
            const std::size_t quote = raw.find('"', pos);
            const std::size_t eq = raw.find("==", pos);
            if (quote == std::string::npos ||
                eq == std::string::npos || eq > quote) {
                break;
            }
            const std::size_t close = raw.find('"', quote + 1);
            if (close == std::string::npos) {
                break;
            }
            names.push_back(
                raw.substr(quote + 1, close - quote - 1));
            pos = close + 1;
        }
        return names;
    };

    for (std::size_t i = 0; i < factory.code.size(); ++i) {
        const std::string &code = factory.code[i];
        static const std::string needle = "make_unique<";
        std::size_t pos = 0;
        while ((pos = code.find(needle, pos)) !=
               std::string::npos) {
            const std::size_t begin = pos + needle.size();
            std::size_t end = begin;
            while (end < code.size() && isIdentChar(code[end])) {
                ++end;
            }
            const std::string class_name =
                code.substr(begin, end - begin);
            pos = end;
            if (class_name.empty()) {
                continue;
            }
            int scope = scopes.innermostAt(i, begin);
            std::vector<std::string> controlling;
            while (scope >= 0) {
                controlling = schemesControlling(scope);
                if (!controlling.empty()) {
                    break;
                }
                scope = scopes.scopes[scope].parent;
            }
            for (const std::string &scheme_name : controlling) {
                for (SchemeFact &fact : model.schemes) {
                    if (fact.name != scheme_name) {
                        continue;
                    }
                    if (std::find(fact.classes.begin(),
                                  fact.classes.end(),
                                  class_name) ==
                        fact.classes.end()) {
                        fact.classes.push_back(class_name);
                    }
                }
            }
        }
    }
}

/**
 * True when class @p name itself mentions @p method: inside its body
 * span, or as a "<name>::<method>" qualified definition anywhere in
 * the tree.
 */
bool
classMentions(const ProjectModel &model, const RepoTree &tree,
              const std::string &name, const std::string &method)
{
    const auto it = model.classByName.find(name);
    if (it != model.classByName.end()) {
        const ClassInfo &info = model.classes[it->second];
        for (const SourceFile &file : tree.files) {
            if (file.relative != info.file) {
                continue;
            }
            for (std::size_t i = info.beginLine;
                 i <= info.endLine && i < file.code.size(); ++i) {
                if (findIdent(file.code[i], method) !=
                    std::string::npos) {
                    return true;
                }
            }
        }
    }
    // Out-of-class qualified definition: Class::method anywhere,
    // at identifier boundaries so Class::replayBlockX does not
    // satisfy replayBlock.
    const std::string qualified = name + "::" + method;
    for (const SourceFile &file : tree.files) {
        if (!file.isCpp || file.inTests) {
            continue;
        }
        for (const std::string &code : file.code) {
            if (findIdent(code, qualified) != std::string::npos) {
                return true;
            }
        }
    }
    return false;
}

} // namespace

int
ScopeIndex::innermostAt(std::size_t line, std::size_t col) const
{
    int best = -1;
    std::size_t best_open_line = 0;
    std::size_t best_open_col = 0;
    for (std::size_t i = 0; i < scopes.size(); ++i) {
        const Scope &scope = scopes[i];
        const bool after_open = scope.openLine < line ||
            (scope.openLine == line && scope.openCol < col);
        const bool before_close = scope.closeLine > line ||
            (scope.closeLine == line && scope.closeCol >= col);
        if (!after_open || !before_close) {
            continue;
        }
        // Scopes nest, so the latest-opening container is the
        // innermost.
        if (best < 0 || scope.openLine > best_open_line ||
            (scope.openLine == best_open_line &&
             scope.openCol > best_open_col)) {
            best = static_cast<int>(i);
            best_open_line = scope.openLine;
            best_open_col = scope.openCol;
        }
    }
    return best;
}

bool
ScopeIndex::isAncestorOrSelf(int ancestor, int scope) const
{
    if (ancestor < 0) {
        return true; // top level encloses everything
    }
    while (scope >= 0) {
        if (scope == ancestor) {
            return true;
        }
        scope = scopes[scope].parent;
    }
    return false;
}

bool
ProjectModel::hierarchyMentions(const RepoTree &tree,
                                const std::string &name,
                                const std::string &needle) const
{
    std::set<std::string> visited;
    std::vector<std::string> pending{name};
    while (!pending.empty()) {
        const std::string current = pending.back();
        pending.pop_back();
        if (current == "Predictor" ||
            !visited.insert(current).second) {
            continue; // root interface defaults never count
        }
        if (classMentions(*this, tree, current, needle)) {
            return true;
        }
        const auto it = classByName.find(current);
        if (it == classByName.end()) {
            continue;
        }
        for (const std::string &base :
             classes[it->second].bases) {
            pending.push_back(base);
        }
    }
    return false;
}

bool
usesHeader(const SourceFile &file, const FileModel &artifacts,
           const std::string &headerRelative)
{
    if (file.relative == headerRelative) {
        return true;
    }
    for (const IncludeRef &include : artifacts.includes) {
        if (include.angled) {
            continue;
        }
        if (headerRelative == include.path ||
            (headerRelative.size() > include.path.size() &&
             headerRelative.compare(
                 headerRelative.size() - include.path.size() - 1,
                 include.path.size() + 1,
                 "/" + include.path) == 0)) {
            return true;
        }
    }
    return false;
}

ProjectModel
buildModel(const RepoTree &tree)
{
    ProjectModel model;
    model.files.resize(tree.files.size());

    std::size_t factory_index = tree.files.size();
    for (std::size_t i = 0; i < tree.files.size(); ++i) {
        const SourceFile &file = tree.files[i];
        FileModel &artifacts = model.files[i];
        if (!file.isCpp) {
            continue;
        }
        // Include paths are string literals, blanked in the
        // stripped code — parse directives from the raw lines
        // (a commented-out #include is rare enough to accept).
        for (std::size_t line = 0; line < file.lines.size();
             ++line) {
            parseInclude(file.lines[line], line + 1,
                         artifacts.includes);
        }
        artifacts.scopes = buildScopes(file);
        collectClasses(file, artifacts, model.classes);
        collectGuarded(file, model.guardedEntities);
        if (file.relative == "src/sim/factory.cc") {
            factory_index = i;
        }
    }

    for (std::size_t i = 0; i < model.classes.size(); ++i) {
        model.classByName.emplace(model.classes[i].name, i);
    }

    if (factory_index < tree.files.size()) {
        parseFactory(tree, factory_index, model);
    }
    return model;
}

} // namespace bplint
