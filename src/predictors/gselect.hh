/**
 * @file
 * gselect (GAs) global-history predictor.
 */

#pragma once

#include "predictors/single_table.hh"

namespace bpred
{

/**
 * gselect: a tag-less counter table indexed by the *concatenation*
 * of global-history bits (high) and branch-address bits (low) —
 * GAs in Yeh and Patt's taxonomy. With a history length >= the
 * index width, no address bits survive, the degenerate case behind
 * its poor 12-bit-history results in the paper.
 */
class GSelectPredictor : public SingleTablePredictor
{
  public:
    /**
     * @param index_bits log2 of the table size (1..maxIndexBits).
     * @param history_bits Global-history length k (at most 64).
     * @param counter_bits Counter width (1 or 2).
     */
    GSelectPredictor(unsigned index_bits, unsigned history_bits,
                     unsigned counter_bits = 2)
        : SingleTablePredictor(TableIndex::Concat, index_bits,
                               history_bits, counter_bits)
    {
    }
};

} // namespace bpred
