// Miniature factory: "good" has a block kernel, "waived" runs the
// scalar path by declaration, and "bad" is the half-registered
// scheme the rule exists to catch (no kernel, no waiver).

#include "predictors/bad.hh"
#include "predictors/good.hh"
#include "predictors/waived.hh"

namespace bpred
{

// bp_lint: scalar-only(waived) — tag/LRU bound; scalar replay wins.
const std::vector<SchemeInfo> &
listSchemes()
{
    static const std::vector<SchemeInfo> schemes = {
        {"good", "fully wired scheme"},
        {"waived", "scalar by declaration"},
        {"bad", "half-registered scheme"},
    };
    return schemes;
}

std::unique_ptr<Predictor>
makePredictor(const std::string &scheme)
{
    if (scheme == "good") {
        return std::make_unique<GoodPredictor>();
    }
    if (scheme == "waived") {
        return std::make_unique<WaivedPredictor>();
    }
    if (scheme == "bad") {
        return std::make_unique<BadPredictor>();
    }
    return nullptr;
}

} // namespace bpred
