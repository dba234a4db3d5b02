/**
 * @file
 * Rule "alloc-untrusted": allocation sizing in layers that parse
 * external input.
 *
 * The trace layer (src/trace/), the corpus runner (src/sim/corpus*)
 * and every snapshot decoder (any file defining a `::loadState(`)
 * decode counts out of bytes a user hands the tools. Sizing an
 * allocation straight from such a decoded count is how a corrupt
 * 8-byte header becomes a multi-gigabyte OOM, so every container
 * reserve() or resize() in those files must carry a
 * `bp_lint: allow(reserve-untrusted)` annotation stating why its
 * count is trusted or bounded (validated against the stream length,
 * clamped to an in-memory size, a caller-chosen constant, ...).
 *
 * The annotation token is shared with the older incarnation of this
 * check (it lived inside banned-identifier and covered reserve()
 * in src/trace/ only), so existing justifications keep working.
 *
 * Matching runs over comment- and string-stripped code, so prose
 * and literals never trip it.
 */

#include "bp_lint/lint.hh"

namespace bplint
{

namespace
{

/** Whether @p file defines a snapshot decoder. */
bool
definesLoadState(const SourceFile &file)
{
    for (const std::string &code : file.code) {
        if (code.find("::loadState(") != std::string::npos) {
            return true;
        }
    }
    return false;
}

/** Files whose allocations may size themselves from decoded input. */
bool
parsesUntrustedInput(const SourceFile &file)
{
    return file.relative.rfind("src/trace/", 0) == 0 ||
        file.relative.rfind("src/sim/corpus", 0) == 0 ||
        definesLoadState(file);
}

constexpr const char *sizedCalls[] = {".reserve(", ".resize("};

} // namespace

void
ruleAllocUntrusted(const RepoTree &tree,
                   std::vector<Finding> &findings)
{
    for (const SourceFile &file : tree.files) {
        if (!file.isCpp || !parsesUntrustedInput(file)) {
            continue;
        }
        for (std::size_t i = 0; i < file.code.size(); ++i) {
            const std::string &code = file.code[i];
            const std::size_t line_no = i + 1;
            for (const char *call : sizedCalls) {
                if (code.find(call) == std::string::npos) {
                    continue;
                }
                if (lineAllows(file, line_no, "reserve-untrusted")) {
                    continue;
                }
                findings.push_back(
                    {"alloc-untrusted", file.relative, line_no,
                     std::string("container ") + (call + 1) +
                         ") in an untrusted-input layer without a "
                         "'bp_lint: allow(reserve-untrusted)' "
                         "annotation explaining why the count is "
                         "trusted or bounded"});
            }
        }
    }
}

} // namespace bplint
