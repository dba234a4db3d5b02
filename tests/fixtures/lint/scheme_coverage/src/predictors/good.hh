#pragma once

namespace bpred
{

class GoodPredictor : public Predictor
{
  public:
    void replayBlock(const BranchRecord *records, std::size_t n,
                     ReplayCounters &counters,
                     ReplayScratch *scratch) override;
};

} // namespace bpred
