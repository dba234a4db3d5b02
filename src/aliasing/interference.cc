#include "aliasing/interference.hh"

#include "aliasing/tagged_table.hh"
#include "predictors/history.hh"
#include "predictors/info_vector.hh"
#include "support/site_table.hh"

namespace bpred
{

double
InterferenceResult::destructiveRatio() const
{
    return dynamicBranches == 0
        ? 0.0
        : static_cast<double>(destructive) /
            static_cast<double>(dynamicBranches);
}

double
InterferenceResult::constructiveRatio() const
{
    return dynamicBranches == 0
        ? 0.0
        : static_cast<double>(constructive) /
            static_cast<double>(dynamicBranches);
}

InterferenceResult
classifyInterference(const Trace &trace, const IndexFunction &function,
                     unsigned counter_bits)
{
    SatCounterArray table(u64(1) << function.indexBits, counter_bits);
    TaggedDirectMappedTable shadow(function.indexBits);
    FlatTable<SatCounter> twins;
    GlobalHistory history;
    RatioStat mispredicts;
    InterferenceResult result;

    for (const BranchRecord &record : trace) {
        if (!record.conditional) {
            history.shiftIn(true);
            continue;
        }
        ++result.dynamicBranches;

        const u64 key =
            packInfoVector(record.pc, history.raw(), function.historyBits);
        const u64 index = function(record.pc, history.raw());

        const bool real_prediction = table.predictTaken(index);
        auto [twin, is_new] = twins.tryEmplace(key);
        if (is_new) {
            // First encounter: the twin is seeded with the outcome
            // (the unaliased-predictor convention); the reference
            // itself is compulsory, not interference.
            twin = SatCounter(counter_bits);
            twin.setStrong(record.taken);
        }
        const bool twin_prediction = twin.predictTaken();

        const auto outcome = shadow.probe(index, key);
        if (is_new) {
            ++result.compulsory;
        } else if (outcome == TaggedDirectMappedTable::Outcome::Hit) {
            ++result.unaliasedLookups;
        } else if (real_prediction == twin_prediction) {
            ++result.harmless;
        } else if (real_prediction == record.taken) {
            ++result.constructive;
        } else if (twin_prediction == record.taken) {
            ++result.destructive;
        } else {
            // Both wrong: the aliasing changed the prediction but
            // not the outcome quality; count as harmless.
            ++result.harmless;
        }

        mispredicts.sample(real_prediction != record.taken);
        table.update(index, record.taken);
        if (!is_new) {
            twin.update(record.taken);
        }
        history.shiftIn(record.taken);
    }

    result.mispredictRatio = mispredicts.ratio();
    return result;
}

} // namespace bpred
