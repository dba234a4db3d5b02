#include "core/skewed_predictor.hh"

#include <cassert>

#include "core/skew.hh"
#include "core/skewed_kernel_simd.hh"
#include "predictors/block_kernel.hh"
#include "predictors/info_vector.hh"
#include "predictors/replay_scratch.hh"
#include "support/logging.hh"
#include "support/probe.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

namespace
{

/**
 * Skewed-predictor hot state (see block_kernel.hh): per-bank counter
 * views, a by-value Config, a by-value history register, and a local
 * write tally, so the vote/update loop runs entirely out of
 * registers and the (inlined) skewing hashes. The bank count is a
 * template parameter — replayBlock() dispatches over the odd counts
 * the skewing family admits — so the bank loops fully unroll and
 * the skewH/skewHInverse subexpressions the f0/f1/f2 functions
 * share are computed once per branch, not once per bank. step()
 * takes its vote and update from skewedVote(), the function the
 * phase-split transition tables are generated from, and computes the
 * same result as the split SkewedPredictor::update() — the
 * block-vs-scalar contract tests pin the two against each other for
 * every policy, indexing mode, and the enhanced variant.
 */
template <unsigned NumBanks>
struct SkewedBlockState
{
    static_assert(NumBanks >= 1 && NumBanks <= maxSkewBanks);

    SatCounterArray::View banks[NumBanks];
    SkewedPredictor::Config config;
    GlobalHistory history;
    u64 bankWrites = 0;
    GlobalHistory *historyOut = nullptr;
    u64 *bankWritesOut = nullptr;

    u64
    bankIndexOf(unsigned bank, Addr pc) const
    {
        if (config.indexing == BankIndexing::IdenticalGshare) {
            return gshareIndex(pc, history.raw(), config.historyBits,
                               config.bankIndexBits);
        }
        if (config.enhanced && bank == 0) {
            // e-gskew: bank 0 sees the address alone (bit truncation).
            return addressIndex(pc, config.bankIndexBits);
        }
        const u64 v =
            packInfoVector(pc, history.raw(), config.historyBits);
        return skewIndex(bank, v, config.bankIndexBits);
    }

    bool
    step(Addr pc, bool taken)
    {
        u64 indices[NumBanks];
        u8 values[NumBanks];
#pragma GCC unroll 8
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            indices[bank] = bankIndexOf(bank, pc);
            values[bank] = banks[bank].value(indices[bank]);
        }
        // A policy-skipped bank stores its old value back; bankWrites
        // still counts exactly the updates the split update()
        // performs.
        const SkewedVote<NumBanks> vote =
            skewedVote(values, taken, banks[0].max, banks[0].threshold,
                       config.updatePolicy);
#pragma GCC unroll 8
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            banks[bank].at(indices[bank]) = vote.next[bank];
        }
        bankWrites += vote.writes;
        history.shiftIn(taken);
        return vote.prediction;
    }

    void unconditional(Addr) { history.shiftIn(true); }

    void
    commit()
    {
        *historyOut = history;
        *bankWritesOut += bankWrites;
    }
};

} // namespace

const SkewedPredictor::Config &
SkewedPredictor::validated(const Config &config)
{
    if (config.numBanks % 2 == 0 || config.numBanks == 0 ||
        config.numBanks > maxSkewBanks) {
        fatal("gskewed: bank count must be odd and within the "
              "skewing family (got " +
              std::to_string(config.numBanks) + ")");
    }
    checkedIndexBits("gskewed", config.bankIndexBits);
    if (config.counterBits < 1 || config.counterBits > 8) {
        fatal("gskewed: bad counter width");
    }
    return config;
}

SkewedPredictor::SkewedPredictor(const Config &cfg)
    : config(validated(cfg)),
      banks(config.numBanks, u64(1) << config.bankIndexBits,
            config.counterBits, BankLayout::Interleaved)
{
}

SkewedPredictor::SkewedPredictor(unsigned num_banks,
                                 unsigned bank_index_bits,
                                 unsigned history_bits,
                                 UpdatePolicy policy,
                                 unsigned counter_bits)
    : SkewedPredictor(Config{num_banks, bank_index_bits, history_bits,
                             counter_bits, policy,
                             BankIndexing::Skewed, false})
{
}

u64
SkewedPredictor::bankIndexOf(unsigned bank, Addr pc) const
{
    if (config.indexing == BankIndexing::IdenticalGshare) {
        return gshareIndex(pc, history.raw(), config.historyBits,
                           config.bankIndexBits);
    }
    if (config.enhanced && bank == 0) {
        // e-gskew: bank 0 sees the address alone (bit truncation).
        return addressIndex(pc, config.bankIndexBits);
    }
    const u64 v = packInfoVector(pc, history.raw(), config.historyBits);
    return skewIndex(bank, v, config.bankIndexBits);
}

std::vector<u64>
SkewedPredictor::bankIndices(Addr pc) const
{
    std::vector<u64> indices(config.numBanks);
    for (unsigned bank = 0; bank < config.numBanks; ++bank) {
        indices[bank] = bankIndexOf(bank, pc);
    }
    return indices;
}

bool
SkewedPredictor::predict(Addr pc)
{
    unsigned votes_taken = 0;
    for (unsigned bank = 0; bank < config.numBanks; ++bank) {
        if (banks.predictTaken(bank, bankIndexOf(bank, pc))) {
            ++votes_taken;
        }
    }
    return votes_taken * 2 > config.numBanks;
}

void
SkewedPredictor::update(Addr pc, bool taken)
{
    // Compute per-bank indices and predictions with the pre-branch
    // history (update() contract), then apply the update policy,
    // publishing each decision when a probe is attached. This is the
    // reference the block kernels' skewedVote() is pinned to; it
    // shares none of their code.
    unsigned votes_taken = 0;
    u64 indices[maxSkewBanks];
    bool bank_predictions[maxSkewBanks];
    for (unsigned bank = 0; bank < config.numBanks; ++bank) {
        indices[bank] = bankIndexOf(bank, pc);
        bank_predictions[bank] =
            banks.predictTaken(bank, indices[bank]);
        if (bank_predictions[bank]) {
            ++votes_taken;
        }
    }
    const bool overall = votes_taken * 2 > config.numBanks;
    const bool overall_correct = overall == taken;

    if (probeSink) [[unlikely]] {
        probeSink->onResolved({pc, overall, taken});
        for (unsigned bank = 0; bank < config.numBanks; ++bank) {
            probeSink->onBankVote(
                {pc, bank, bank_predictions[bank], overall, taken});
        }
    }

    const bool partial =
        config.updatePolicy == UpdatePolicy::Partial ||
        config.updatePolicy == UpdatePolicy::PartialLazy;
    for (unsigned bank = 0; bank < config.numBanks; ++bank) {
        const bool bank_correct = bank_predictions[bank] == taken;
        if (partial && overall_correct && !bank_correct) {
            // The bank disagreed but the vote was right: its entry
            // likely serves another substream, so leave it alone.
            if (probeSink) [[unlikely]] {
                probeSink->onUpdateSkip(
                    {bank, UpdateSkipEvent::Reason::PartialProtect});
            }
            continue;
        }
        const u8 before = banks.value(bank, indices[bank]);
        if (config.updatePolicy == UpdatePolicy::PartialLazy &&
            bank_correct &&
            before == (taken ? u8(mask(config.counterBits)) : u8(0))) {
            // Skip the write when the counter is already saturated
            // toward the outcome; its value would not change.
            if (probeSink) [[unlikely]] {
                probeSink->onUpdateSkip(
                    {bank, UpdateSkipEvent::Reason::LazySaturated});
            }
            continue;
        }
        banks.update(bank, indices[bank], taken);
        if (probeSink && banks.value(bank, indices[bank]) != before)
            [[unlikely]] {
            probeSink->onCounterWrite(
                {bank, before, banks.value(bank, indices[bank])});
        }
        ++bankWriteCount;
    }
    history.shiftIn(taken);
}

void
SkewedPredictor::replayBlock(const BranchRecord *records,
                             std::size_t count,
                             ReplayCounters &counters,
                             ReplayScratch *scratch)
{
    if (probeSink) [[unlikely]] {
        // Scalar delegation keeps the event stream bit-identical.
        Predictor::replayBlock(records, count, counters, scratch);
        return;
    }
    const bool phase_split = scratch &&
        skewedTableFits(config.numBanks, config.counterBits) &&
        simdSkewGeometryOk(config.bankIndexBits, config.historyBits) &&
        resolveSimdMode(scratch->mode) == SimdMode::Avx2;
    // Covers both gskewed and e-gskew (one kernel instantiation per
    // bank count): the inlined block step computes each bank index
    // once per branch and the loop carries no virtual calls at all.
    // The phase-split variant (skewed_kernel_simd.hh) precomputes
    // every bank's indices for the block with the vectorized f0..f4
    // kernels first — exact,
    // because history advances on outcomes, never predictions — and
    // resolves each conditional with one transition-table lookup.
    // Groups too wide for a table take the block kernel.
    const auto run = [&]<unsigned NumBanks>() {
        if (phase_split) {
            const bool identical =
                config.indexing == BankIndexing::IdenticalGshare;
            // One u8 counter per entry per bank: the group's total
            // footprint decides whether the resolve pass prefetches.
            const bool prefetch = simdWantsCounterPrefetch(
                u64(NumBanks) << config.bankIndexBits);
            const u64 history_out = replayTiled(
                records, count, history.raw(), *scratch, NumBanks,
                [&](std::size_t conditionals, u8 *mask) {
                    const u64 *pcs = scratch->pc.data();
                    const u64 *hists = scratch->history.data();
                    if (identical) {
                        // Pure replication: one shared index set.
                        fillGshareIndices(SimdMode::Avx2, pcs, hists,
                                          conditionals,
                                          config.historyBits,
                                          config.bankIndexBits,
                                          scratch->indices[0].data());
                    } else {
                        // One fused pass: the banks share the packed
                        // vector and the four H permutation values,
                        // and e-gskew's address-only bank 0 rides
                        // along on the loaded pc lanes.
                        u32 *outs[NumBanks];
                        for (unsigned bank = 0; bank < NumBanks;
                             ++bank) {
                            outs[bank] = (config.enhanced && bank == 0)
                                ? nullptr
                                : scratch->indices[bank].data();
                        }
                        fillSkewIndexGroup(
                            SimdMode::Avx2, pcs, hists, conditionals,
                            config.historyBits, config.bankIndexBits,
                            NumBanks, outs,
                            config.enhanced
                                ? scratch->indices[0].data()
                                : nullptr);
                    }
                    const u32 *idx[NumBanks];
                    for (unsigned bank = 0; bank < NumBanks; ++bank) {
                        idx[bank] = identical
                            ? scratch->indices[0].data()
                            : scratch->indices[bank].data();
                    }
                    resolveSkewedBanks(
                        banks, idx, scratch->taken.data(),
                        conditionals, config.updatePolicy, prefetch,
                        counters, bankWriteCount, mask,
                        [&](unsigned bank, std::size_t j) -> u64 {
                            if (identical) {
                                return u64(gshareIndex(
                                    pcs[j], hists[j],
                                    config.historyBits,
                                    config.bankIndexBits));
                            }
                            if (config.enhanced && bank == 0) {
                                return u64(addressIndex(
                                    pcs[j], config.bankIndexBits));
                            }
                            return u64(skewIndex(
                                bank,
                                packInfoVector(pcs[j], hists[j],
                                               config.historyBits),
                                config.bankIndexBits));
                        });
                });
            history.set(history_out);
            return;
        }
        SkewedBlockState<NumBanks> state{};
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            state.banks[bank] = banks.bankView(bank);
        }
        state.config = config;
        state.history = history;
        state.historyOut = &history;
        state.bankWritesOut = &bankWriteCount;
        replayBlockWithState(state, records, count, counters,
                             scratch);
    };
    // The constructor admits only the family's odd bank counts.
    switch (config.numBanks) {
      case 1:
        run.template operator()<1>();
        break;
      case 3:
        run.template operator()<3>();
        break;
      case 5:
        run.template operator()<5>();
        break;
      default:
        panic("gskewed: bank count outside the skewing family");
    }
}

void
SkewedPredictor::notifyUnconditional(Addr)
{
    history.shiftIn(true);
}

std::string
SkewedPredictor::name() const
{
    std::string label = config.enhanced ? "e-gskew" : "gskewed";
    label += "-" + std::to_string(config.numBanks) + "x" +
        formatEntries(entriesPerBank());
    label += "-h" + std::to_string(config.historyBits);
    switch (config.updatePolicy) {
      case UpdatePolicy::Total:
        label += "-total";
        break;
      case UpdatePolicy::Partial:
        label += "-partial";
        break;
      case UpdatePolicy::PartialLazy:
        label += "-partial-lazy";
        break;
    }
    if (config.indexing == BankIndexing::IdenticalGshare) {
        label += "-identical";
    }
    return label;
}

u64
SkewedPredictor::storageBits() const
{
    return banks.storageBits();
}

void
SkewedPredictor::reset()
{
    banks.reset();
    history.reset();
    bankWriteCount = 0;
}

void
SkewedPredictor::saveState(ByteWriter &out) const
{
    // Bank-by-bank framing, byte-identical to the pre-bank-group
    // sequence of standalone SatCounterArray snapshots.
    banks.saveState(out);
    out.putU64(history.raw());
    out.putU64(bankWriteCount);
}

void
SkewedPredictor::loadState(ByteReader &in)
{
    banks.loadState(in);
    history.set(in.getU64());
    bankWriteCount = in.getU64();
}

SkewedPredictor::Config
makeEnhancedConfig(unsigned bank_index_bits, unsigned history_bits,
                   unsigned counter_bits)
{
    SkewedPredictor::Config config;
    config.numBanks = 3;
    config.bankIndexBits = bank_index_bits;
    config.historyBits = history_bits;
    config.counterBits = counter_bits;
    config.updatePolicy = UpdatePolicy::Partial;
    config.indexing = BankIndexing::Skewed;
    config.enhanced = true;
    return config;
}

} // namespace bpred
