/**
 * @file
 * Rule "scheme-coverage": every scheme in the factory table either
 * replays through a block kernel or says in factory.cc that it runs
 * the scalar path on purpose.
 *
 * A scheme's class hierarchy must provide a block-replay kernel
 * (replayBlock / block_kernel mention), or factory.cc must carry an
 * explicit `bp_lint: scalar-only(<scheme>)` waiver; a waiver whose
 * scheme has since gained a kernel is flagged as stale. Findings
 * anchor to the scheme's listSchemes() table line.
 *
 * Snapshot support and contract-test coverage are not checked here:
 * the base Predictor's saveState/loadState throw, and
 * Snapshot.EverySchemeSupportsIt, SnapshotRoundTrip.* and
 * test_predictor_contract iterate listSchemes() itself.
 */

#include "bp_lint/lint.hh"
#include "bp_lint/model.hh"

namespace bplint
{

void
ruleSchemeCoverage(const RepoTree &tree,
                   std::vector<Finding> &findings)
{
    const ProjectModel &model = *tree.model;
    if (!model.hasFactory) {
        return; // fixture trees without a factory skip the rule
    }
    if (model.schemes.empty()) {
        findings.push_back(
            {"scheme-coverage", model.factoryFile, 0,
             "could not locate the listSchemes() scheme table"});
        return;
    }

    const SourceFile *factory = nullptr;
    for (const SourceFile &file : tree.files) {
        if (file.relative == model.factoryFile) {
            factory = &file;
        }
    }

    for (const SchemeFact &scheme : model.schemes) {
        if (factory &&
            lineAllows(*factory, scheme.line, "scheme-coverage")) {
            continue;
        }

        if (scheme.classes.empty()) {
            findings.push_back(
                {"scheme-coverage", model.factoryFile, scheme.line,
                 "scheme '" + scheme.name +
                     "' has no makePredictor() branch constructing "
                     "a predictor class"});
            continue;
        }
        const std::string &primary = scheme.classes.front();

        const bool waived =
            model.scalarOnlyWaivers.count(scheme.name) != 0;
        const bool hasKernel =
            model.hierarchyMentions(tree, primary, "replayBlock") ||
            model.hierarchyMentions(tree, primary, "block_kernel");
        if (!waived && !hasKernel) {
            findings.push_back(
                {"scheme-coverage", model.factoryFile, scheme.line,
                 "scheme '" + scheme.name + "': hierarchy of " +
                     primary +
                     " provides no replayBlock/block_kernel and "
                     "factory.cc declares no bp_lint: scalar-only(" +
                     scheme.name + ") waiver"});
        } else if (waived && hasKernel) {
            findings.push_back(
                {"scheme-coverage", model.factoryFile,
                 model.scalarOnlyWaivers.at(scheme.name),
                 "scheme '" + scheme.name +
                     "' declares a scalar-only waiver but its "
                     "hierarchy has a block kernel — drop the "
                     "stale waiver"});
        }
    }
}

} // namespace bplint
