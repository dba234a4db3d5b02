/**
 * @file
 * Extension (§7 future work, "per-address history schemes"):
 * skewing applied to a PAg pattern table (pskew).
 *
 * Two regimes are reported, because they disagree — and that
 * disagreement is the finding:
 *
 *  1. On the IBS-like suite, PAg's *shared* pattern table is mostly
 *     constructively aliased (same-history branches usually agree),
 *     so it generalizes across branches; mixing the address in
 *     (pskew) trades that generalization for conflict isolation and
 *     loses at equal storage.
 *  2. On a conflict-stress workload (many branch pairs realizing
 *     clashing history->outcome functions), the shared table
 *     thrashes and pskew wins decisively.
 *
 * The skewing technique transfers to per-address schemes exactly
 * when pattern-table interference is destructive — the same
 * condition §5.2's model identifies for global schemes.
 */

#include "bench_common.hh"

#include "core/skewed_predictor.hh"
#include "predictors/local_two_level.hh"
#include "support/rng.hh"

namespace
{

using namespace bpred;

/** Conflict-stress trace: clashing local-pattern site classes. */
Trace
conflictStressTrace(u64 branches, u64 seed)
{
    Trace trace("pattern-conflict-stress");
    Rng rng(seed);
    std::vector<u32> phase(512, 0);
    for (u64 i = 0; i < branches; ++i) {
        const u32 site = static_cast<u32>(rng.uniformInt(512));
        const Addr pc = 0x1000 + 4 * site;
        const u32 p = phase[site]++;
        const bool outcome =
            site % 2 == 0 ? p % 2 == 0 : (p % 4) < 2;
        trace.appendConditional(pc, outcome);
    }
    return trace;
}

/** pskew: 2^10 local histories of @p local_bits into 3 x 512 banks. */
SkewedPredictor
makePskew(unsigned local_bits)
{
    SkewedPredictor::Config config;
    config.bhtIndexBits = 10;
    config.historyBits = local_bits;
    config.numBanks = 3;
    config.bankIndexBits = 9;
    return SkewedPredictor(config);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bpred::bench;

    init(argc, argv);

    banner("Extension: skewed per-address predictor",
           "PAg vs pskew: IBS-like suite (constructive sharing) and "
           "a conflict-stress workload (destructive sharing).");

    TextTable table({"workload", "pag-1Kx10 (2Kb PHT)",
                     "pskew-1Kx10-3x512 (3Kb banks)"});
    for (const Trace &trace : suite()) {
        LocalTwoLevelPredictor pag(10, 10);
        SkewedPredictor pskew = makePskew(10);
        table.row()
            .cell(trace.name())
            .percentCell(simulate(pag, trace).mispredictPercent())
            .percentCell(simulate(pskew, trace).mispredictPercent());
    }
    {
        const Trace stress = conflictStressTrace(400'000, 9);
        LocalTwoLevelPredictor pag(10, 2);
        SkewedPredictor pskew = makePskew(2);
        table.row()
            .cell(stress.name())
            .percentCell(simulate(pag, stress).mispredictPercent())
            .percentCell(simulate(pskew, stress).mispredictPercent());
    }
    emitTable("summary", table);

    expectation(
        "PAg wins on the six IBS-like rows (constructive sharing "
        "dominates); pskew wins by a wide margin on the "
        "conflict-stress row. Skewing helps exactly where "
        "interference is destructive.");
    return finish();
}
