/**
 * @file
 * SARIF 2.1.0 serialization of lint findings.
 *
 * One run, one driver ("bp_lint"), one reportingDescriptor per
 * registered rule, one result per finding. The output is the
 * minimal valid subset GitHub code scanning ingests: uploading it
 * turns lint findings into pull-request annotations without any
 * format glue in CI.
 */

#pragma once

#include <string>
#include <vector>

#include "bp_lint/lint.hh"

namespace bplint
{

/**
 * Serialize @p findings as a SARIF 2.1.0 log. File-scoped findings
 * (line 0) emit a location without a region, since SARIF requires
 * startLine >= 1.
 */
std::string toSarif(const std::vector<Finding> &findings);

/** Serialize and write to @p path; throws std::runtime_error on
 * I/O failure. */
void writeSarif(const std::vector<Finding> &findings,
                const std::string &path);

} // namespace bplint
