#include "core/shared_hysteresis.hh"

#include "core/skew.hh"
#include "predictors/info_vector.hh"
#include "support/logging.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

SharedHysteresisSkewedPredictor::SharedHysteresisSkewedPredictor(
    const SkewedPredictor::Config &cfg)
    : config(cfg)
{
    if (config.numBanks % 2 == 0 || config.numBanks == 0 ||
        config.numBanks > maxSkewBanks) {
        fatal("gskewed-sh: bank count must be odd and within the "
              "skewing family");
    }
    if (config.bankIndexBits < 1 || config.bankIndexBits > 28) {
        fatal("gskewed-sh: unreasonable bank index width");
    }
    if (config.counterBits != 2) {
        fatal("gskewed-sh: the shared-hysteresis encoding splits "
              "2-bit counters; counterBits must be 2");
    }
    // bp_lint: allow(reserve-untrusted): the constructor's bank
    // count, checked against the skewing family above.
    banks.resize(config.numBanks);
    const u64 entries = u64(1) << config.bankIndexBits;
    for (Bank &bank : banks) {
        bank.prediction.assign(entries, 0);
        bank.hysteresis.assign(std::max<u64>(1, entries / 2), 1);
    }
}

u64
SharedHysteresisSkewedPredictor::bankIndexOf(unsigned bank,
                                             Addr pc) const
{
    if (config.enhanced && bank == 0) {
        return addressIndex(pc, config.bankIndexBits);
    }
    const u64 v =
        packInfoVector(pc, history.raw(), config.historyBits);
    return skewIndex(bank, v, config.bankIndexBits);
}

bool
SharedHysteresisSkewedPredictor::bankPredicts(const Bank &bank,
                                              u64 index) const
{
    return bank.prediction[index] != 0;
}

void
SharedHysteresisSkewedPredictor::bankTrain(Bank &bank, u64 index,
                                           bool taken)
{
    // Reassemble the virtual 2-bit counter, step it, write back.
    const u64 hyst_index = index >> 1;
    u8 counter = static_cast<u8>((bank.prediction[index] << 1) |
                                 bank.hysteresis[hyst_index]);
    if (taken) {
        if (counter < 3) {
            ++counter;
        }
    } else {
        if (counter > 0) {
            --counter;
        }
    }
    bank.prediction[index] = static_cast<u8>(counter >> 1);
    bank.hysteresis[hyst_index] = static_cast<u8>(counter & 1);
}

bool
SharedHysteresisSkewedPredictor::predict(Addr pc)
{
    unsigned votes_taken = 0;
    for (unsigned bank = 0; bank < config.numBanks; ++bank) {
        if (bankPredicts(banks[bank], bankIndexOf(bank, pc))) {
            ++votes_taken;
        }
    }
    return votes_taken * 2 > config.numBanks;
}

void
SharedHysteresisSkewedPredictor::update(Addr pc, bool taken)
{
    unsigned votes_taken = 0;
    u64 indices[maxSkewBanks];
    bool bank_predictions[maxSkewBanks];
    for (unsigned bank = 0; bank < config.numBanks; ++bank) {
        indices[bank] = bankIndexOf(bank, pc);
        bank_predictions[bank] =
            bankPredicts(banks[bank], indices[bank]);
        if (bank_predictions[bank]) {
            ++votes_taken;
        }
    }
    const bool overall = votes_taken * 2 > config.numBanks;
    const bool overall_correct = overall == taken;
    const bool partial =
        config.updatePolicy != UpdatePolicy::Total;

    for (unsigned bank = 0; bank < config.numBanks; ++bank) {
        const bool bank_correct = bank_predictions[bank] == taken;
        if (partial && overall_correct && !bank_correct) {
            continue;
        }
        bankTrain(banks[bank], indices[bank], taken);
    }
    history.shiftIn(taken);
}

void
SharedHysteresisSkewedPredictor::notifyUnconditional(Addr)
{
    history.shiftIn(true);
}

std::string
SharedHysteresisSkewedPredictor::name() const
{
    std::string label =
        config.enhanced ? "e-gskew-sh" : "gskewed-sh";
    label += "-" + std::to_string(config.numBanks) + "x" +
        formatEntries(entriesPerBank());
    label += "-h" + std::to_string(config.historyBits);
    label += config.updatePolicy == UpdatePolicy::Total ? "-total"
                                                        : "-partial";
    return label;
}

u64
SharedHysteresisSkewedPredictor::storageBits() const
{
    u64 total = 0;
    for (const Bank &bank : banks) {
        total += bank.prediction.size() + bank.hysteresis.size();
    }
    return total;
}

void
SharedHysteresisSkewedPredictor::saveState(ByteWriter &out) const
{
    for (const Bank &bank : banks) {
        out.putU64(bank.prediction.size());
        out.putBytes(bank.prediction.data(), bank.prediction.size());
        out.putU64(bank.hysteresis.size());
        out.putBytes(bank.hysteresis.data(), bank.hysteresis.size());
    }
    out.putU64(history.raw());
}

void
SharedHysteresisSkewedPredictor::loadState(ByteReader &in)
{
    for (Bank &bank : banks) {
        if (in.getU64() != bank.prediction.size()) {
            fatal("gskewed-sh: snapshot geometry mismatch");
        }
        in.getBytes(bank.prediction.data(), bank.prediction.size());
        if (in.getU64() != bank.hysteresis.size()) {
            fatal("gskewed-sh: snapshot geometry mismatch");
        }
        in.getBytes(bank.hysteresis.data(), bank.hysteresis.size());
        for (const u8 bit : bank.prediction) {
            if (bit > 1) {
                fatal("gskewed-sh: snapshot bit out of range");
            }
        }
        for (const u8 bit : bank.hysteresis) {
            if (bit > 1) {
                fatal("gskewed-sh: snapshot bit out of range");
            }
        }
    }
    history.set(in.getU64());
}

void
SharedHysteresisSkewedPredictor::reset()
{
    for (Bank &bank : banks) {
        std::fill(bank.prediction.begin(), bank.prediction.end(), 0);
        std::fill(bank.hysteresis.begin(), bank.hysteresis.end(), 1);
    }
    history.reset();
}

} // namespace bpred
