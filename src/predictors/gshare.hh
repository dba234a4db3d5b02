/**
 * @file
 * gshare global-history predictor [McFarling '93].
 */

#pragma once

#include "predictors/single_table.hh"

namespace bpred
{

/**
 * gshare: one tag-less table of 2^n saturating counters indexed by
 * XOR of low-order branch-address bits with the global history
 * (history aligned to the high-order end of the index when shorter
 * than it). This is the paper's reference single-bank organization.
 */
class GSharePredictor : public SingleTablePredictor
{
  public:
    /**
     * @param index_bits log2 of the table size (1..maxIndexBits).
     * @param history_bits Global-history length k (at most 64).
     * @param counter_bits Counter width (1 or 2).
     */
    GSharePredictor(unsigned index_bits, unsigned history_bits,
                    unsigned counter_bits = 2)
        : SingleTablePredictor(TableIndex::Xor, index_bits,
                               history_bits, counter_bits)
    {
    }
};

} // namespace bpred
