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
    // Suite sums per column, in the table's order.
    double sum[4] = {};
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

        table.row().cell(trace.name());
        unsigned column = 0;
        for (Predictor *predictor :
             {static_cast<Predictor *>(&full_4k),
              static_cast<Predictor *>(&sh_4k),
              static_cast<Predictor *>(&sh_8k),
              static_cast<Predictor *>(&full_8k)}) {
            const double pct = simulate(*predictor, trace).mispredictPercent();
            table.percentCell(pct);
            sum[column++] += pct;
        }
    }
    emitTable("summary", table);

    const double traces = static_cast<double>(suite().size());
    const double full_4k = sum[0] / traces;
    const double sh_4k = sum[1] / traces;
    const double sh_8k = sum[2] / traces;
    const double full_8k = sum[3] / traces;
    expectation(
        "At equal geometry the 25%-cheaper encoding costs accuracy: "
        "sh 3x4K mispredicts no less than full 3x4K on the suite "
        "mean: " +
        std::string(sh_4k >= full_4k ? "holds" : "FAILS") + " (sh " +
        formatDouble(sh_4k) + "% vs full " + formatDouble(full_4k) +
        "%). On short traces the likely cause of a FAILS is the "
        "cold state, not the encoding: full banks start at counter 0 "
        "(strongly not-taken), -sh pairs at virtual counter 1 "
        "(prediction bit 0, hysteresis bit 1, weakly not-taken), so "
        "a cold -sh entry follows a taken branch one outcome sooner. "
        "Spending the saved bits on more entries (sh 3x8K at 36Kb) "
        "buys at least half of full 3x8K's (48Kb) gain over full "
        "3x4K: " +
        std::string(full_4k - sh_8k >= 0.5 * (full_4k - full_8k)
                        ? "holds"
                        : "FAILS") +
        " (sh 3x8K " + formatDouble(sh_8k) + "%, full 3x8K " +
        formatDouble(full_8k) + "%, full 3x4K " + formatDouble(full_4k) +
        "%).");
    return finish();
}
