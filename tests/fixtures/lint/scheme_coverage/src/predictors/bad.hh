#pragma once

namespace bpred
{

// Half-registered on purpose: no block kernel and no scalar-only
// waiver.
class BadPredictor : public Predictor
{
};

} // namespace bpred
