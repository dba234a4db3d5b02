/**
 * @file
 * Destructive / harmless / constructive aliasing classification
 * (Young, Gloy & Smith's taxonomy, cited in §1 of the paper).
 */

#pragma once

#include "aliasing/index_function.hh"
#include "support/stats.hh"
#include "trace/trace.hh"

namespace bpred
{

/**
 * Per-lookup interference classification for a single-bank,
 * tag-less predictor table.
 */
struct InterferenceResult
{
    /** Dynamic conditional branches observed. */
    u64 dynamicBranches = 0;

    /**
     * First encounters of an (address, history) pair. Not
     * classified as interference — the unaliased twin has no
     * meaningful prediction yet (matching Table 2's convention of
     * not charging compulsory references).
     */
    u64 compulsory = 0;

    /** Lookups whose entry last served the same (addr, hist) pair. */
    u64 unaliasedLookups = 0;

    /** Aliased lookups that predicted as the unaliased twin would. */
    u64 harmless = 0;

    /**
     * Aliased lookups that differed from the unaliased twin and
     * were wrong (the twin would have been right).
     */
    u64 destructive = 0;

    /**
     * Aliased lookups that differed from the unaliased twin and
     * were right (the twin would have been wrong).
     */
    u64 constructive = 0;

    /** Overall misprediction ratio of the aliased table. */
    double mispredictRatio = 0.0;

    /** destructive / dynamicBranches. */
    double destructiveRatio() const;

    /** constructive / dynamicBranches. */
    double constructiveRatio() const;
};

/**
 * Run a tag-less counter table indexed by @p function over
 * @p trace side-by-side with an ideal unaliased predictor, and
 * classify every aliased lookup.
 *
 * "Aliased" means the tagged shadow of the entry last served a
 * different (address, history) pair. The unaliased twin is a
 * private counter per pair trained on the same stream.
 *
 * @param counter_bits Width of both the real and twin counters.
 */
InterferenceResult classifyInterference(const Trace &trace,
                                        const IndexFunction &function,
                                        unsigned counter_bits = 2);

} // namespace bpred

