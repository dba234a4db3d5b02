#include "aliasing/index_function.hh"

#include "support/logging.hh"

namespace bpred
{

ResolvedIndex
IndexFunction::resolve() const
{
    const unsigned n = indexBits;
    const unsigned k = historyBits;
    ResolvedIndex resolved;
    resolved.indexMask = mask(n);
    resolved.indexBits = n;
    resolved.historyBits = k;
    switch (kind) {
      case IndexKind::GShare:
        // A history no longer than the index sits at its high end; a
        // longer one is XOR-folded to n bits (gshareIndex()).
        resolved.addrMask = mask(n);
        resolved.histMask = mask(k);
        resolved.shift = k <= n ? n - k : 0;
        resolved.foldRounds = k <= n ? 1 : (k + n - 1) / n;
        break;
      case IndexKind::GSelect:
        // The k history bits above the n - k low address bits, or
        // the n youngest history bits alone (gselectIndex()).
        resolved.addrMask = k < n ? mask(n - k) : 0;
        resolved.histMask = mask(k < n ? k : n);
        resolved.shift = k < n ? n - k : 0;
        break;
      case IndexKind::Address:
        resolved.addrMask = mask(n);
        break;
      case IndexKind::Skew0:
      case IndexKind::Skew1:
      case IndexKind::Skew2:
        resolved.skewBank = static_cast<int>(kind) -
            static_cast<int>(IndexKind::Skew0);
        break;
      default:
        panic("IndexFunction: bad kind");
    }
    return resolved;
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
