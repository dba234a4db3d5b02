#include "model/extrapolation.hh"

#include <vector>

#include "aliasing/stack_distance.hh"
#include "model/formulas.hh"
#include "predictors/history.hh"
#include "predictors/info_vector.hh"
#include "support/site_table.hh"

namespace bpred
{

TraceModelInputs
measureModelInputs(const Trace &trace, unsigned history_bits)
{
    // One entry per substream serves both inputs: its taken/total
    // counts give the bias density, and its last outcome is what an
    // unaliased 1-bit counter predicts. A cold reference is not
    // charged as a misprediction (Table 2's convention).
    struct Substream
    {
        u64 taken = 0;
        u64 total = 0;
        bool last = false;
    };
    FlatTable<Substream> substreams;
    GlobalHistory history;
    u64 dynamic_branches = 0;
    u64 warm = 0;
    u64 warm_mispredicts = 0;

    for (const BranchRecord &record : trace) {
        if (!record.conditional) {
            history.shiftIn(true);
            continue;
        }
        ++dynamic_branches;
        const u64 key =
            packInfoVector(record.pc, history.raw(), history_bits);
        Substream &substream = substreams.at(key);
        const bool warm_reference = substream.total != 0;
        warm += warm_reference ? 1 : 0;
        warm_mispredicts +=
            warm_reference && substream.last != record.taken ? 1 : 0;
        ++substream.total;
        substream.taken += record.taken ? 1 : 0;
        substream.last = record.taken;
        history.shiftIn(record.taken);
    }

    u64 biased_taken = 0;
    substreams.forEach([&](u64, const Substream &substream) {
        biased_taken += 2 * substream.taken >= substream.total ? 1 : 0;
    });

    TraceModelInputs inputs;
    inputs.biasTaken = substreams.empty()
        ? 0.5
        : static_cast<double>(biased_taken) /
            static_cast<double>(substreams.size());
    inputs.unaliasedMispredict = warm == 0
        ? 0.0
        : static_cast<double>(warm_mispredicts) /
            static_cast<double>(warm);
    inputs.numSubstreams = substreams.size();
    inputs.dynamicBranches = dynamic_branches;
    return inputs;
}

ExtrapolationResult
extrapolateMispredictions(const Trace &trace, unsigned history_bits,
                          u64 bank_entries, u64 dm_entries,
                          const TraceModelInputs &inputs)
{
    StackDistanceTracker distances;
    GlobalHistory history;
    const double b = inputs.biasTaken;

    // The three per-reference terms depend only on the distance, so
    // each distance's are computed once, on first use. A distance is
    // below the number of distinct keys, which bounds the memo.
    struct Terms
    {
        double skew = 0.0;
        double dm = 0.0;
        double pBank = 0.0;
        bool filled = false;
    };
    const auto termsAt = [&](u64 distance) {
        Terms terms;
        terms.pBank = aliasingProbability(bank_entries, distance);
        terms.skew = destructiveProbabilitySkewed3(terms.pBank, b);
        terms.dm = destructiveProbabilityDirectMapped(
            aliasingProbability(dm_entries, distance), b);
        terms.filled = true;
        return terms;
    };
    const Terms first_reference =
        termsAt(StackDistanceTracker::infiniteDistance);
    std::vector<Terms> memo;

    double skew_overhead = 0.0;
    double dm_overhead = 0.0;
    double p_sum = 0.0;
    u64 dynamic_branches = 0;

    for (const BranchRecord &record : trace) {
        if (!record.conditional) {
            history.shiftIn(true);
            continue;
        }
        ++dynamic_branches;
        const u64 key =
            packInfoVector(record.pc, history.raw(), history_bits);
        const u64 distance = distances.reference(key);

        const Terms *terms = &first_reference;
        if (distance != StackDistanceTracker::infiniteDistance) {
            if (distance >= memo.size()) {
                memo.resize(distances.distinctKeys());
            }
            Terms &slot = memo[distance];
            if (!slot.filled) {
                slot = termsAt(distance);
            }
            terms = &slot;
        }
        skew_overhead += terms->skew;
        dm_overhead += terms->dm;
        p_sum += terms->pBank;

        history.shiftIn(record.taken);
    }

    ExtrapolationResult result;
    result.inputs = inputs;
    if (dynamic_branches > 0) {
        const double n = static_cast<double>(dynamic_branches);
        result.skewedExtrapolated =
            skew_overhead / n + inputs.unaliasedMispredict;
        result.directMappedExtrapolated =
            dm_overhead / n + inputs.unaliasedMispredict;
        result.meanBankAliasingProbability = p_sum / n;
    }
    return result;
}

} // namespace bpred
