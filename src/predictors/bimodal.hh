/**
 * @file
 * Bimodal (Smith) predictor: a PC-indexed table of saturating
 * counters.
 */

#pragma once

#include "predictors/single_table.hh"

namespace bpred
{

/**
 * The classic Smith predictor [Smith '81]: 2^n saturating counters
 * indexed by low-order branch-address bits. It uses no history, so
 * it anchors the baseline comparisons and serves as the bimodal
 * component of the McFarling hybrid.
 */
class BimodalPredictor : public SingleTablePredictor
{
  public:
    /**
     * @param index_bits log2 of the table size (1..maxIndexBits).
     * @param counter_bits Counter width (1 or 2 in the paper).
     */
    BimodalPredictor(unsigned index_bits, unsigned counter_bits = 2)
        : SingleTablePredictor(TableIndex::Address, index_bits, 0,
                               counter_bits)
    {
    }
};

} // namespace bpred
