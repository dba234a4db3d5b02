#include "core/skewed_local.hh"

#include <cassert>

#include "core/skew.hh"
#include "predictors/info_vector.hh"
#include "support/logging.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

SkewedLocalPredictor::SkewedLocalPredictor(unsigned bht_index_bits,
                                           unsigned local_history_bits,
                                           unsigned num_banks,
                                           unsigned bank_index_bits,
                                           UpdatePolicy policy,
                                           unsigned counter_bits)
    : historyTable(u64(1) << checkedIndexBits("pskew", bht_index_bits), 0),
      bhtIndexBits(bht_index_bits),
      localHistoryBits(local_history_bits),
      bankIndexBits(checkedIndexBits("pskew", bank_index_bits)),
      updatePolicy(policy)
{
    if (num_banks % 2 == 0 || num_banks == 0 ||
        num_banks > maxSkewBanks) {
        fatal("pskew: bank count must be odd and within the skewing "
              "family");
    }
    if (local_history_bits < 1 || local_history_bits > 16) {
        fatal("pskew: local history length out of range");
    }
    // bp_lint: allow(reserve-untrusted): the constructor's bank
    // count, checked against the skewing family above.
    banks.reserve(num_banks);
    for (unsigned bank = 0; bank < num_banks; ++bank) {
        banks.emplace_back(u64(1) << bank_index_bits, counter_bits);
    }
}

u64
SkewedLocalPredictor::bankIndexOf(unsigned bank, Addr pc,
                                  u16 local_history) const
{
    // The information vector is (address, local history) — the
    // same packing as the global schemes, with the local history
    // in the low bits.
    const u64 v = packInfoVector(pc, local_history, localHistoryBits);
    return skewIndex(bank, v, bankIndexBits);
}

bool
SkewedLocalPredictor::predict(Addr pc)
{
    const u16 local_history =
        historyTable[addressIndex(pc, bhtIndexBits)];
    unsigned votes_taken = 0;
    for (unsigned bank = 0; bank < banks.size(); ++bank) {
        if (banks[bank].predictTaken(
                bankIndexOf(bank, pc, local_history))) {
            ++votes_taken;
        }
    }
    return votes_taken * 2 > banks.size();
}

void
SkewedLocalPredictor::update(Addr pc, bool taken)
{
    u16 &local_history = historyTable[addressIndex(pc, bhtIndexBits)];

    unsigned votes_taken = 0;
    u64 indices[maxSkewBanks];
    bool bank_predictions[maxSkewBanks];
    for (unsigned bank = 0; bank < banks.size(); ++bank) {
        indices[bank] = bankIndexOf(bank, pc, local_history);
        bank_predictions[bank] =
            banks[bank].predictTaken(indices[bank]);
        if (bank_predictions[bank]) {
            ++votes_taken;
        }
    }
    const bool overall = votes_taken * 2 > banks.size();
    const bool overall_correct = overall == taken;
    const bool partial = updatePolicy != UpdatePolicy::Total;

    for (unsigned bank = 0; bank < banks.size(); ++bank) {
        const bool bank_correct = bank_predictions[bank] == taken;
        if (partial && overall_correct && !bank_correct) {
            continue;
        }
        banks[bank].update(indices[bank], taken);
    }

    local_history = static_cast<u16>(
        ((local_history << 1) | (taken ? 1 : 0)) &
        mask(localHistoryBits));
}

std::string
SkewedLocalPredictor::name() const
{
    return "pskew-" + formatEntries(historyTable.size()) + "x" +
        std::to_string(localHistoryBits) + "-" +
        std::to_string(banks.size()) + "x" +
        formatEntries(u64(1) << bankIndexBits);
}

u64
SkewedLocalPredictor::storageBits() const
{
    u64 total = historyTable.size() * localHistoryBits;
    for (const auto &bank : banks) {
        total += bank.storageBits();
    }
    return total;
}

void
SkewedLocalPredictor::reset()
{
    std::fill(historyTable.begin(), historyTable.end(), 0);
    for (auto &bank : banks) {
        bank.reset();
    }
}

void
SkewedLocalPredictor::saveState(ByteWriter &out) const
{
    out.putU64(historyTable.size());
    for (const u16 entry : historyTable) {
        out.putU16(entry);
    }
    for (const auto &bank : banks) {
        bank.saveState(out);
    }
}

void
SkewedLocalPredictor::loadState(ByteReader &in)
{
    const u64 count = in.getU64();
    if (count != historyTable.size()) {
        fatal("pskew snapshot: history table size mismatch (stored " +
              std::to_string(count) + ", predictor has " +
              std::to_string(historyTable.size()) + ")");
    }
    std::vector<u16> restored(historyTable.size());
    for (u16 &entry : restored) {
        entry = in.getU16();
        if (entry > mask(localHistoryBits)) {
            fatal("pskew snapshot: local history exceeds " +
                  std::to_string(localHistoryBits) + " bits");
        }
    }
    for (auto &bank : banks) {
        bank.loadState(in);
    }
    historyTable = std::move(restored);
}

} // namespace bpred
