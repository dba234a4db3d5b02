/**
 * @file
 * Internal registry of lint rule entry points (one per rule_*.cc).
 */

#pragma once

#include "bp_lint/lint.hh"

namespace bplint
{

void ruleCmakeRegistration(const RepoTree &, std::vector<Finding> &);
void rulePragmaOnce(const RepoTree &, std::vector<Finding> &);
void ruleBannedIdentifier(const RepoTree &, std::vector<Finding> &);
void ruleAllocUntrusted(const RepoTree &, std::vector<Finding> &);
void ruleSimdIsolation(const RepoTree &, std::vector<Finding> &);
void ruleLayering(const RepoTree &, std::vector<Finding> &);
void ruleSchemeCoverage(const RepoTree &, std::vector<Finding> &);
void ruleLockDiscipline(const RepoTree &, std::vector<Finding> &);
void ruleAtomicOrder(const RepoTree &, std::vector<Finding> &);

} // namespace bplint
