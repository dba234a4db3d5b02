/**
 * @file
 * Extension (§7 future work, "distributed predictor encodings"):
 * the shared-hysteresis encoding — 1.5 bits/entry instead of 2 —
 * compared against full 2-bit banks at equal geometry and at equal
 * storage.
 */

#include "bench_common.hh"

#include "core/skewed_predictor.hh"

int
main(int argc, char **argv)
{
    using namespace bpred;
    using namespace bpred::bench;

    init(argc, argv);

    banner("Extension: distributed encodings",
           "Shared-hysteresis (1.5 bit/entry) vs full 2-bit gskewed "
           "banks, h=8, partial update.");

    TextTable table({"benchmark", "full 3x4K (24Kb)",
                     "sh 3x4K (18Kb)", "sh 3x8K (36Kb)",
                     "full 3x8K (48Kb)"});
    for (const Trace &trace : suite()) {
        SkewedPredictor::Config config;
        config.numBanks = 3;
        config.bankIndexBits = 12;
        config.historyBits = 8;

        SkewedPredictor::Config shared = config;
        shared.storage = BankStorage::SharedHysteresis;

        SkewedPredictor full_4k(config);
        SkewedPredictor sh_4k(shared);
        config.bankIndexBits = 13;
        shared.bankIndexBits = 13;
        SkewedPredictor sh_8k(shared);
        SkewedPredictor full_8k(config);

        table.row()
            .cell(trace.name())
            .percentCell(simulate(full_4k, trace).mispredictPercent())
            .percentCell(simulate(sh_4k, trace).mispredictPercent())
            .percentCell(simulate(sh_8k, trace).mispredictPercent())
            .percentCell(
                simulate(full_8k, trace).mispredictPercent());
    }
    emitTable("summary", table);

    expectation(
        "At equal geometry the 25%-cheaper encoding costs only a "
        "little accuracy (hysteresis sharing rarely flips a "
        "direction); spending the saved bits on more entries "
        "(sh 3x8K at 36Kb vs full 3x8K at 48Kb) buys most of the "
        "bigger table's accuracy at 75% of its cost.");
    return finish();
}
