/**
 * @file
 * bp_lint command-line driver.
 *
 * Usage:
 *   bp_lint [--root <dir>] [--rule <name>]... [--list-rules]
 *           [--sarif <path>]
 *
 * Exit status: 0 on a clean tree, 1 when findings were reported,
 * 2 on usage or I/O errors. Findings print one per line as
 * `file:line: [rule] message` so editors and CI annotate them.
 *
 * `--sarif <path>` additionally writes the findings as a SARIF
 * 2.1.0 log for GitHub code scanning.
 */

#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bp_lint/lint.hh"
#include "bp_lint/sarif.hh"

namespace
{

int
usage(std::ostream &os, int status)
{
    os << "usage: bp_lint [--root <dir>] [--rule <name>]... "
          "[--list-rules] [--sarif <path>]\n";
    return status;
}

int
report(const std::vector<bplint::Finding> &findings,
       const std::string &sarifPath, std::size_t fileCount)
{
    if (!sarifPath.empty()) {
        bplint::writeSarif(findings, sarifPath);
    }
    for (const bplint::Finding &finding : findings) {
        std::cout << finding.file << ":" << finding.line << ": ["
                  << finding.rule << "] " << finding.message
                  << "\n";
    }
    if (findings.empty()) {
        std::cout << "bp_lint: clean (" << fileCount << " files)\n";
        return 0;
    }
    std::cout << "bp_lint: " << findings.size() << " finding(s)\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string sarifPath;
    std::vector<std::string> rules;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--rule" && i + 1 < argc) {
            rules.push_back(argv[++i]);
        } else if (arg == "--sarif" && i + 1 < argc) {
            sarifPath = argv[++i];
        } else if (arg == "--list-rules") {
            for (const bplint::RuleInfo &rule :
                 bplint::allRules()) {
                std::cout << rule.name << ": " << rule.summary
                          << "\n";
            }
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            return usage(std::cout, 0);
        } else {
            std::cerr << "bp_lint: unknown argument '" << arg
                      << "'\n";
            return usage(std::cerr, 2);
        }
    }

    for (const std::string &rule : rules) {
        bool known = false;
        for (const bplint::RuleInfo &info : bplint::allRules()) {
            known = known || rule == info.name;
        }
        if (!known) {
            std::cerr << "bp_lint: unknown rule '" << rule
                      << "' (see --list-rules)\n";
            return 2;
        }
    }

    try {
        const bplint::RepoTree tree = bplint::loadTree(root);
        return report(bplint::runLint(tree, rules), sarifPath,
                      tree.files.size());
    } catch (const std::exception &error) {
        std::cerr << "bp_lint: " << error.what() << "\n";
        return 2;
    }
}
