#include "aliasing/index_function.hh"

#include "core/skew.hh"
#include "predictors/info_vector.hh"
#include "support/logging.hh"

namespace bpred
{

u64
IndexFunction::skewed(Addr pc, History history) const
{
    switch (kind) {
      case IndexKind::Skew0:
      case IndexKind::Skew1:
      case IndexKind::Skew2: {
        const unsigned bank =
            static_cast<unsigned>(kind) -
            static_cast<unsigned>(IndexKind::Skew0);
        const u64 v = packInfoVector(pc, history, historyBits);
        return skewIndex(bank, v, indexBits);
      }
      default:
        panic("IndexFunction: bad kind");
    }
}

std::string
IndexFunction::name() const
{
    std::string base;
    switch (kind) {
      case IndexKind::GShare:
        base = "gshare";
        break;
      case IndexKind::GSelect:
        base = "gselect";
        break;
      case IndexKind::Address:
        base = "address";
        break;
      case IndexKind::Skew0:
        base = "skew-f0";
        break;
      case IndexKind::Skew1:
        base = "skew-f1";
        break;
      case IndexKind::Skew2:
        base = "skew-f2";
        break;
    }
    return base + "/" + std::to_string(indexBits) + "/h" +
        std::to_string(historyBits);
}

} // namespace bpred
