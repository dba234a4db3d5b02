#pragma once

namespace bpred
{

class WaivedPredictor : public Predictor
{
  public:
    bool predict(Addr pc) override;
};

} // namespace bpred
