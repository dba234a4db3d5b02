/**
 * @file
 * Unit tests for the trace-driven model extrapolation (Figure 11
 * machinery).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>

#include "aliasing/stack_distance.hh"
#include "model/extrapolation.hh"
#include "model/formulas.hh"
#include "predictors/info_vector.hh"
#include "predictors/unaliased.hh"
#include "support/rng.hh"
#include "workloads/presets.hh"

namespace bpred
{
namespace
{

Trace
biasedRandomTrace(u64 sites, u64 length, u64 seed)
{
    Trace trace("model-input");
    Rng rng(seed);
    for (u64 i = 0; i < length; ++i) {
        const u64 site = rng.uniformInt(sites);
        const Addr pc = 0x1000 + 4 * site;
        const bool biased_taken = site % 4 != 0; // 75% of sites
        trace.appendConditional(pc,
                                rng.chance(biased_taken ? 0.95
                                                        : 0.05));
    }
    return trace;
}

TEST(ModelInputs, BiasDensityMeasured)
{
    const Trace trace = biasedRandomTrace(64, 20000, 3);
    const TraceModelInputs inputs = measureModelInputs(trace, 0);
    // 75% of sites are taken-biased; with h=0 substreams are sites.
    EXPECT_NEAR(inputs.biasTaken, 0.75, 0.1);
    EXPECT_EQ(inputs.numSubstreams, 64u);
    EXPECT_EQ(inputs.dynamicBranches, 20000u);
}

TEST(ModelInputs, UnaliasedRateMatchesNoise)
{
    // Sites flip with probability 0.05 against their bias; an
    // unaliased 1-bit predictor mispredicts roughly at twice the
    // flip rate (each flip also spoils the next prediction).
    const Trace trace = biasedRandomTrace(64, 40000, 5);
    const TraceModelInputs inputs = measureModelInputs(trace, 0);
    EXPECT_GT(inputs.unaliasedMispredict, 0.05);
    EXPECT_LT(inputs.unaliasedMispredict, 0.15);
}

TEST(ModelInputs, MoreHistoryMoreSubstreams)
{
    const Trace trace = biasedRandomTrace(64, 20000, 7);
    const TraceModelInputs h0 = measureModelInputs(trace, 0);
    const TraceModelInputs h8 = measureModelInputs(trace, 8);
    EXPECT_GT(h8.numSubstreams, h0.numSubstreams);
}

TEST(Extrapolation, LargeTablesOnlyCompulsoryOverhead)
{
    const Trace trace = biasedRandomTrace(32, 10000, 11);
    const TraceModelInputs inputs = measureModelInputs(trace, 0);
    // Tables far larger than the working set: aliasing probability
    // ~0 except compulsory (p = 1) references.
    const ExtrapolationResult result = extrapolateMispredictions(
        trace, 0, u64(1) << 20, u64(1) << 20, inputs);
    EXPECT_NEAR(result.skewedExtrapolated,
                inputs.unaliasedMispredict, 0.01);
    EXPECT_NEAR(result.directMappedExtrapolated,
                inputs.unaliasedMispredict, 0.01);
}

TEST(Extrapolation, TinyTablesAddLargeOverhead)
{
    const Trace trace = biasedRandomTrace(256, 20000, 13);
    const TraceModelInputs inputs = measureModelInputs(trace, 0);
    const ExtrapolationResult small = extrapolateMispredictions(
        trace, 0, 16, 16, inputs);
    const ExtrapolationResult large = extrapolateMispredictions(
        trace, 0, 4096, 4096, inputs);
    EXPECT_GT(small.skewedExtrapolated, large.skewedExtrapolated);
    EXPECT_GT(small.directMappedExtrapolated,
              large.directMappedExtrapolated);
    EXPECT_GT(small.meanBankAliasingProbability,
              large.meanBankAliasingProbability);
}

TEST(Extrapolation, SkewedBeatsDmAtEqualStorageShortDistances)
{
    // A working set that fits: re-reference distances are short, so
    // the model must favour 3x(N/3) skewed over N direct-mapped.
    const Trace trace = biasedRandomTrace(48, 20000, 17);
    const TraceModelInputs inputs = measureModelInputs(trace, 0);
    const ExtrapolationResult result = extrapolateMispredictions(
        trace, 0, 512 / 3, 512, inputs);
    EXPECT_LT(result.skewedExtrapolated,
              result.directMappedExtrapolated + 1e-9);
}

TEST(Extrapolation, MeanProbabilityWithinBounds)
{
    const Trace trace = biasedRandomTrace(64, 5000, 19);
    const TraceModelInputs inputs = measureModelInputs(trace, 4);
    const ExtrapolationResult result = extrapolateMispredictions(
        trace, 4, 256, 1024, inputs);
    EXPECT_GE(result.meanBankAliasingProbability, 0.0);
    EXPECT_LE(result.meanBankAliasingProbability, 1.0);
}

TEST(Extrapolation, EmptyTraceIsZero)
{
    Trace trace("empty");
    TraceModelInputs inputs;
    const ExtrapolationResult result =
        extrapolateMispredictions(trace, 4, 256, 1024, inputs);
    EXPECT_DOUBLE_EQ(result.skewedExtrapolated, 0.0);
    EXPECT_DOUBLE_EQ(result.directMappedExtrapolated, 0.0);
}

/** Equal down to the last bit of the double. */
void
expectSameBits(double got, double want, const std::string &what)
{
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
        << what << ": got " << got << ", reference " << want;
}

TEST(ModelIdentity, ExtrapolationMatchesPerReferenceLoop)
{
    // The model applied one reference at a time, straight from the
    // stack-distance tracker and formulas (1), (3) and (4), summed in
    // trace order: the extrapolation must give the same three doubles.
    const struct
    {
        unsigned historyBits;
        u64 bankEntries;
        u64 dmEntries;
    } geometries[] = {{12, 4096, 16384}, {4, 256, 1024}, {0, 1, 4}};
    for (const std::string &name : ibsBenchmarkNames()) {
        const Trace trace = makeIbsTrace(name, 0.02);
        for (const auto &geometry : geometries) {
            const TraceModelInputs inputs =
                measureModelInputs(trace, geometry.historyBits);
            StackDistanceTracker distances;
            u64 history = 0;
            double skew = 0.0;
            double dm = 0.0;
            double p_sum = 0.0;
            u64 references = 0;
            for (const BranchRecord &record : trace) {
                if (!record.conditional) {
                    history = (history << 1) | 1;
                    continue;
                }
                ++references;
                const u64 distance = distances.reference(packInfoVector(
                    record.pc, history, geometry.historyBits));
                const double p_bank =
                    aliasingProbability(geometry.bankEntries, distance);
                const double p_dm =
                    aliasingProbability(geometry.dmEntries, distance);
                skew += destructiveProbabilitySkewed3(p_bank,
                                                      inputs.biasTaken);
                dm += destructiveProbabilityDirectMapped(p_dm,
                                                         inputs.biasTaken);
                p_sum += p_bank;
                history = (history << 1) | (record.taken ? 1 : 0);
            }
            const double n = static_cast<double>(references);
            const ExtrapolationResult result = extrapolateMispredictions(
                trace, geometry.historyBits, geometry.bankEntries,
                geometry.dmEntries, inputs);
            const std::string what =
                name + " h" + std::to_string(geometry.historyBits) +
                " N" + std::to_string(geometry.dmEntries);
            expectSameBits(result.skewedExtrapolated,
                           skew / n + inputs.unaliasedMispredict,
                           what + " skewed");
            expectSameBits(result.directMappedExtrapolated,
                           dm / n + inputs.unaliasedMispredict,
                           what + " direct-mapped");
            expectSameBits(result.meanBankAliasingProbability, p_sum / n,
                           what + " mean p");
        }
    }
}

TEST(ModelIdentity, InputsMatchUnaliasedPredictor)
{
    // b from per-pair taken/total counts, and the unaliased rate from
    // a 1-bit UnaliasedPredictor (first encounters not charged).
    for (const std::string &name : ibsBenchmarkNames()) {
        const Trace trace = makeIbsTrace(name, 0.02);
        for (const unsigned h : {0u, 4u, 12u}) {
            UnaliasedPredictor unaliased(h, 1);
            std::map<u64, std::pair<u64, u64>> pairs;
            u64 history = 0;
            for (const BranchRecord &record : trace) {
                if (!record.conditional) {
                    unaliased.notifyUnconditional(record.pc);
                    history = (history << 1) | 1;
                    continue;
                }
                auto &[taken, total] =
                    pairs[packInfoVector(record.pc, history, h)];
                taken += record.taken ? 1 : 0;
                ++total;
                unaliased.predict(record.pc);
                unaliased.update(record.pc, record.taken);
                history = (history << 1) | (record.taken ? 1 : 0);
            }
            u64 biased_taken = 0;
            for (const auto &[key, counts] : pairs) {
                biased_taken += 2 * counts.first >= counts.second ? 1 : 0;
            }

            const TraceModelInputs inputs = measureModelInputs(trace, h);
            const std::string what = name + " h" + std::to_string(h);
            expectSameBits(inputs.biasTaken,
                           static_cast<double>(biased_taken) /
                               static_cast<double>(pairs.size()),
                           what + " b");
            expectSameBits(inputs.unaliasedMispredict,
                           unaliased.mispredictionRatio(),
                           what + " unaliased rate");
            EXPECT_EQ(inputs.numSubstreams, pairs.size()) << what;
            EXPECT_EQ(inputs.numSubstreams, unaliased.numSubstreams())
                << what;
            EXPECT_EQ(inputs.dynamicBranches, unaliased.dynamicBranches())
                << what;
        }
    }
}

} // namespace
} // namespace bpred
