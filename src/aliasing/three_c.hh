/**
 * @file
 * The three-Cs aliasing decomposition (§2-§3 of the paper).
 */

#pragma once

#include <string>
#include <vector>

#include "aliasing/index_function.hh"
#include "trace/trace.hh"

namespace bpred
{

/**
 * Aliasing measured for one index function over one trace, broken
 * into the paper's three components. All figures are ratios of
 * dynamic conditional branches.
 */
struct ThreeCsResult
{
    /** The index function measured. */
    IndexFunction function;

    /** Dynamic conditional branches observed. */
    u64 dynamicBranches = 0;

    /** Total aliasing ratio of the direct-mapped tagged table. */
    double totalAliasing = 0.0;

    /**
     * Miss ratio of the equal-capacity fully-associative LRU table
     * = compulsory + capacity aliasing.
     */
    double faMissRatio = 0.0;

    /** First-time-reference ratio (compulsory aliasing). */
    double compulsory = 0.0;

    /** faMissRatio - compulsory. */
    double capacity() const { return faMissRatio - compulsory; }

    /**
     * totalAliasing - faMissRatio: the component removable by
     * associativity. Can be marginally negative when LRU makes an
     * unlucky replacement the direct-mapped table avoided.
     */
    double conflict() const { return totalAliasing - faMissRatio; }
};

/**
 * Measure the three-Cs decomposition of @p function over @p trace.
 *
 * Walks the trace once, maintaining the global history (shifting in
 * unconditional branches as taken). Each conditional branch probes
 * a direct-mapped tagged table indexed by @p function and is
 * counted against a fully-associative LRU table of the same entry
 * count, keyed by the full (address, history) identity. That count
 * is exact but keeps no recency list: it stamps each reference with
 * its position, remembers each identity's last stamp, and marks the
 * stamps still in use, so it costs one bit per trace record plus
 * one map slot per distinct identity.
 */
ThreeCsResult measureThreeCs(const Trace &trace,
                             const IndexFunction &function);

/**
 * Measure several index functions in one pass over @p trace (the
 * Figure 1 / Figure 2 inner loop). All functions must share the
 * same historyBits; the FA table holds 2^indexBits entries of the
 * first function.
 */
std::vector<ThreeCsResult>
measureThreeCsMulti(const Trace &trace,
                    const std::vector<IndexFunction> &functions);

} // namespace bpred

