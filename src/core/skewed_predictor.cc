#include "core/skewed_predictor.hh"

#include <algorithm>

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

using Config = SkewedPredictor::Config;

/** pskew: a local-history table feeds the banks (see Config). */
constexpr bool
perAddress(const Config &config)
{
    return config.bhtIndexBits > 0;
}

/** The label name() starts with; errors name the scheme by it. */
const char *
schemeLabel(const Config &config)
{
    if (perAddress(config)) {
        return "pskew";
    }
    const bool enhanced = config.indexing == BankIndexing::Enhanced;
    if (config.storage == BankStorage::SharedHysteresis) {
        return enhanced ? "e-gskew-sh" : "gskewed-sh";
    }
    return enhanced ? "e-gskew" : "gskewed";
}

/**
 * The entry bank @p bank reads for a branch at @p pc under history
 * value @p history: the global register, or the branch's local
 * history. The one definition behind the split path, the block state
 * and the phase split's checked recompute.
 */
[[gnu::always_inline]] inline u64
bankIndexOf(const Config &config, unsigned bank, Addr pc, u64 history)
{
    if (config.indexing == BankIndexing::IdenticalGshare) {
        return gshareIndex(pc, history, config.historyBits,
                           config.bankIndexBits);
    }
    if (config.indexing == BankIndexing::Enhanced && bank == 0) {
        // e-gskew: bank 0 sees the address alone (bit truncation).
        return addressIndex(pc, config.bankIndexBits);
    }
    const u64 v = packInfoVector(pc, history, config.historyBits);
    return skewIndex(bank, v, config.bankIndexBits);
}

/** A @p bits-bit local history after a conditional resolves @p taken. */
inline u16
nextLocalHistory(u16 local, bool taken, unsigned bits)
{
    return static_cast<u16>(((local << 1) | u16(taken)) & mask(bits));
}

/**
 * Skewed-predictor hot state (see block_kernel.hh): per-bank entry
 * views, a by-value Config, a by-value history register, and a local
 * write tally, so the vote/update loop runs entirely out of
 * registers and the (inlined) skewing hashes. The bank count, the
 * storage and the history source are template parameters —
 * withShape() dispatches over the combinations the constructor
 * admits — so the bank loops fully unroll, the skewH/skewHInverse
 * subexpressions the f0/f1/f2 functions share are computed once per
 * branch, not once per bank, and neither storage nor history source
 * costs a branch per record. resolve() takes its vote and update
 * from skewedVote(), the function the phase-split transition tables
 * are generated from; the split update() runs resolve() too, and
 * tests/paper_reference.hh is the independent reference all paths
 * are pinned to.
 */
template <unsigned NumBanks, BankStorage Storage, bool PerAddress>
struct SkewedBlockState
{
    static_assert(NumBanks >= 1 && NumBanks <= maxSkewBanks);

    static constexpr unsigned numBanks = NumBanks;

    /** One conditional: each bank's index and entry, and the vote. */
    struct Resolution
    {
        u64 indices[NumBanks];
        u8 values[NumBanks];
        SkewedVote<NumBanks> vote;
    };

    /** Counters, or the prediction bits under shared hysteresis. */
    SatCounterArray::View banks[NumBanks];

    /** Shared hysteresis: each bank's pair-shared bits. */
    SatCounterArray::View hysteresis[NumBanks];

    Config config;
    GlobalHistory history;
    u16 *localHistories = nullptr;
    u64 bankWrites = 0;
    GlobalHistory *historyOut = nullptr;
    u64 *bankWritesOut = nullptr;

    u64
    historyFor(Addr pc) const
    {
        if constexpr (PerAddress) {
            return localHistories[addressIndex(pc, config.bhtIndexBits)];
        } else {
            return history.raw();
        }
    }

    /** The largest entry value. */
    u8
    maxValue() const
    {
        return Storage == BankStorage::Counters ? banks[0].max
                                                : counterMax(2);
    }

    /** Entry values from this one up vote taken. */
    u8
    threshold() const
    {
        return Storage == BankStorage::Counters ? banks[0].threshold
                                                : counterThreshold(2);
    }

    /** Entry @p index of @p bank as one counter value. */
    u8
    read(unsigned bank, u64 index) const
    {
        if constexpr (Storage == BankStorage::Counters) {
            return banks[bank].at(index);
        } else {
            return static_cast<u8>((banks[bank].at(index) << 1) |
                                   hysteresis[bank].at(index >> 1));
        }
    }

    void
    write(unsigned bank, u64 index, u8 value)
    {
        if constexpr (Storage == BankStorage::Counters) {
            banks[bank].at(index) = value;
        } else {
            banks[bank].at(index) = static_cast<u8>(value >> 1);
            hysteresis[bank].at(index >> 1) = static_cast<u8>(value & 1);
        }
    }

    /**
     * The train helper: read every bank's entry for the conditional
     * at @p pc, vote, write what the update policy picks, then record
     * @p taken in the history.
     */
    Resolution
    resolve(Addr pc, bool taken)
    {
        Resolution r;
        const u64 h = historyFor(pc);
#pragma GCC unroll 8
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            r.indices[bank] = bankIndexOf(config, bank, pc, h);
            r.values[bank] = read(bank, r.indices[bank]);
        }
        // A policy-skipped bank stores its old value back; bankWrites
        // still counts exactly the writes the policy performs.
        r.vote = skewedVote(r.values, taken, maxValue(), threshold(),
                            config.updatePolicy);
#pragma GCC unroll 8
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            write(bank, r.indices[bank], r.vote.next[bank]);
        }
        bankWrites += r.vote.writes;
        if constexpr (PerAddress) {
            u16 &local =
                localHistories[addressIndex(pc, config.bhtIndexBits)];
            local = nextLocalHistory(local, taken, config.historyBits);
        } else {
            history.shiftIn(taken);
        }
        return r;
    }

    bool
    step(Addr pc, bool taken)
    {
        return resolve(pc, taken).vote.prediction;
    }

    void
    unconditional(Addr)
    {
        if constexpr (!PerAddress) {
            history.shiftIn(true);
        }
    }

    void
    commit()
    {
        *historyOut = history;
        *bankWritesOut += bankWrites;
    }
};

/** One bank's run of 1-bit entries, in the -sh snapshot framing. */
void
putBitRun(ByteWriter &out, const SatCounterArray &group,
          unsigned bank)
{
    out.putU64(group.entriesPerBank());
    u8 *run = out.grow(group.entriesPerBank());
    for (u64 i = 0; i < group.entriesPerBank(); ++i) {
        run[i] = group.value(bank, i);
    }
}

/** Take and validate a putBitRun() run of @p entries bits. */
const u8 *
takeBitRun(ByteReader &in, u64 entries, const char *scheme)
{
    if (in.getU64() != entries) {
        fatal(std::string(scheme) + ": snapshot geometry mismatch");
    }
    const u8 *run = in.take(entries);
    for (u64 i = 0; i < entries; ++i) {
        if (run[i] > 1) {
            fatal(std::string(scheme) + ": snapshot bit out of range");
        }
    }
    return run;
}

} // namespace

const Config &
SkewedPredictor::validated(const Config &config)
{
    const std::string scheme = schemeLabel(config);
    if (config.numBanks % 2 == 0 || config.numBanks == 0 ||
        config.numBanks > maxSkewBanks) {
        fatal(scheme + ": bank count must be odd and within the "
              "skewing family (got " +
              std::to_string(config.numBanks) + ")");
    }
    checkedIndexBits(scheme, config.bankIndexBits);
    checkedCounterBits(scheme, config.counterBits);
    if (perAddress(config)) {
        if (config.indexing != BankIndexing::Skewed ||
            config.storage != BankStorage::Counters) {
            fatal(scheme + ": per-address history takes skewed "
                  "indexing and counter storage");
        }
        checkedIndexBits(scheme, config.bhtIndexBits);
        if (config.historyBits < 1 || config.historyBits > 16) {
            fatal(scheme + ": local history length out of range");
        }
    } else {
        checkedHistoryBits(scheme, config.historyBits,
                           maxKeyHistoryBits);
    }
    if (config.storage == BankStorage::SharedHysteresis) {
        if (config.counterBits != 2) {
            fatal(scheme + ": the shared-hysteresis encoding splits "
                  "2-bit counters; counterBits must be 2");
        }
        if (config.indexing == BankIndexing::IdenticalGshare) {
            fatal(scheme + ": shared hysteresis takes skewed or "
                  "enhanced indexing");
        }
    }
    return config;
}

SkewedPredictor::SkewedPredictor(const Config &cfg)
    : config(validated(cfg)),
      banks(u64(1) << config.bankIndexBits,
            config.storage == BankStorage::Counters ? config.counterBits
                                                    : 1,
            coldCounter, config.numBanks),
      hysteresis(config.storage == BankStorage::SharedHysteresis
                     ? u64(1) << (config.bankIndexBits - 1)
                     : 0,
                 1, 1 /* weak: see support/sat_counter.hh */,
                 config.numBanks),
      localHistories(perAddress(config)
                         ? std::size_t(1) << config.bhtIndexBits
                         : 0,
                     0)
{
}

SkewedPredictor::SkewedPredictor(unsigned num_banks,
                                 unsigned bank_index_bits,
                                 unsigned history_bits,
                                 UpdatePolicy policy,
                                 unsigned counter_bits)
    : SkewedPredictor(Config{num_banks, bank_index_bits, history_bits,
                             counter_bits, policy})
{
}

template <typename Body>
void
SkewedPredictor::withShape(Body &&body)
{
    const auto by_banks = [&]<BankStorage Storage, bool PerAddress>() {
        // The constructor admits only the family's odd bank counts.
        switch (config.numBanks) {
          case 1:
            body.template operator()<1, Storage, PerAddress>();
            break;
          case 3:
            body.template operator()<3, Storage, PerAddress>();
            break;
          case 5:
            body.template operator()<5, Storage, PerAddress>();
            break;
          default:
            panic("gskewed: bank count outside the skewing family");
        }
    };
    if (perAddress(config)) {
        by_banks.template operator()<BankStorage::Counters, true>();
    } else if (config.storage == BankStorage::SharedHysteresis) {
        by_banks.template operator()<BankStorage::SharedHysteresis,
                                     false>();
    } else {
        by_banks.template operator()<BankStorage::Counters, false>();
    }
}

template <unsigned NumBanks, BankStorage Storage, bool PerAddress>
auto
SkewedPredictor::blockState()
{
    SkewedBlockState<NumBanks, Storage, PerAddress> state{};
    for (unsigned bank = 0; bank < NumBanks; ++bank) {
        state.banks[bank] = banks.view(bank);
        if constexpr (Storage == BankStorage::SharedHysteresis) {
            state.hysteresis[bank] = hysteresis.view(bank);
        }
    }
    state.config = config;
    state.history = history;
    state.localHistories = localHistories.data();
    state.historyOut = &history;
    state.bankWritesOut = &bankWriteCount;
    return state;
}

u64
SkewedPredictor::historyFor(Addr pc) const
{
    if (perAddress(config)) {
        return localHistories[addressIndex(pc, config.bhtIndexBits)];
    }
    return history.raw();
}

std::vector<u64>
SkewedPredictor::bankIndices(Addr pc) const
{
    const u64 h = historyFor(pc);
    std::vector<u64> indices(config.numBanks);
    for (unsigned bank = 0; bank < config.numBanks; ++bank) {
        indices[bank] = bankIndexOf(config, bank, pc, h);
    }
    return indices;
}

bool
SkewedPredictor::predict(Addr pc)
{
    // Under shared hysteresis the group holds the 1-bit prediction
    // entries, so predictTaken() reads the direction either way.
    const u64 h = historyFor(pc);
    unsigned votes_taken = 0;
    for (unsigned bank = 0; bank < config.numBanks; ++bank) {
        if (banks.predictTaken(bank, bankIndexOf(config, bank, pc, h))) {
            ++votes_taken;
        }
    }
    return votes_taken * 2 > config.numBanks;
}

void
SkewedPredictor::update(Addr pc, bool taken)
{
    // The block step's train helper resolves the branch with the
    // pre-branch history (update() contract); with a probe attached,
    // each decision is then published from its result.
    withShape([&]<unsigned NumBanks, BankStorage Storage,
                  bool PerAddress>() {
        auto state = blockState<NumBanks, Storage, PerAddress>();
        const auto r = state.resolve(pc, taken);
        state.commit();
        if (!probeSink) [[likely]] {
            return;
        }
        const SkewedVote<NumBanks> &vote = r.vote;
        probeSink->onResolved({pc, vote.prediction, taken});
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            probeSink->onBankVote({pc, bank,
                                   r.values[bank] >= state.threshold(),
                                   vote.prediction, taken});
        }
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            if ((vote.protectedBanks >> bank) & 1) {
                // The bank disagreed but the vote was right: its
                // entry likely serves another substream.
                probeSink->onUpdateSkip(
                    {bank, UpdateSkipEvent::Reason::PartialProtect});
            } else if ((vote.saturatedBanks >> bank) & 1) {
                probeSink->onUpdateSkip(
                    {bank, UpdateSkipEvent::Reason::LazySaturated});
            } else if (vote.next[bank] != r.values[bank]) {
                probeSink->onCounterWrite(
                    {bank, r.values[bank], vote.next[bank]});
            }
        }
    });
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
        config.storage == BankStorage::Counters &&
        skewedTableFits(config.numBanks, config.counterBits) &&
        simdSkewGeometryOk(config.bankIndexBits, config.historyBits) &&
        resolveSimdMode(scratch->mode) == SimdMode::Avx2;
    // One kernel instantiation per bank count, storage and history
    // source: the inlined block step computes each bank index once per
    // branch and the loop carries no virtual calls at all. The
    // phase-split variant (skewed_kernel_simd.hh) precomputes every
    // bank's indices for each tile with the vectorized f0..f4 kernels
    // first — exact, because history advances on outcomes, never
    // predictions — and resolves each conditional with one
    // transition-table lookup. Groups too wide for a table and
    // shared-hysteresis storage take the block kernel, and only they
    // build a block state.
    withShape([&]<unsigned NumBanks, BankStorage Storage,
                  bool PerAddress>() {
        if constexpr (Storage == BankStorage::Counters) {
            if (phase_split) {
                const bool identical =
                    config.indexing == BankIndexing::IdenticalGshare;
                const bool enhanced =
                    config.indexing == BankIndexing::Enhanced;
                // One u8 counter per entry per bank: the group's total
                // footprint decides whether the resolve pass
                // prefetches.
                const bool prefetch = simdWantsCounterPrefetch(
                    u64(NumBanks) << config.bankIndexBits);
                if (PerAddress) {
                    scratch->ensureLocalHistories(simdTileRecords);
                }
                const u64 history_out = replayTiled(
                    records, count, history.raw(), *scratch, NumBanks,
                    [&](const ReplayTile &tile, u8 *mask) {
                        const u64 *pcs = tile.pc;
                        const u64 *hists = tile.history;
                        const std::size_t conditionals =
                            tile.conditionals;
                        if constexpr (PerAddress) {
                            // pskew: local histories depend only on
                            // outcomes, so a scalar pass walks the
                            // table in trace order first, writing each
                            // conditional's pre-branch local history
                            // to the walk's own buffer. The staged
                            // tile, which gang members share, stays
                            // untouched.
                            u64 *out = scratch->localHistories.data();
                            for (std::size_t j = 0; j < conditionals;
                                 ++j) {
                                u16 &entry = localHistories[addressIndex(
                                    pcs[j], config.bhtIndexBits)];
                                out[j] = entry;
                                entry = nextLocalHistory(
                                    entry, tile.taken[j] != 0,
                                    config.historyBits);
                            }
                            hists = out;
                        }
                        if (identical) {
                            // Pure replication: one shared index set.
                            fillTableIndices(TableIndex::Xor, pcs, hists,
                                             conditionals,
                                             config.historyBits,
                                             config.bankIndexBits,
                                             scratch->indices[0].data());
                        } else {
                            // One fused pass: the banks share the
                            // packed vector and the four H permutation
                            // values, and e-gskew's address-only bank 0
                            // rides along on the loaded pc lanes.
                            u32 *outs[NumBanks];
                            for (unsigned bank = 0; bank < NumBanks;
                                 ++bank) {
                                outs[bank] = enhanced && bank == 0
                                    ? nullptr
                                    : scratch->indices[bank].data();
                            }
                            fillSkewIndexGroup(
                                pcs, hists, conditionals,
                                config.historyBits, config.bankIndexBits,
                                NumBanks, outs,
                                enhanced ? scratch->indices[0].data()
                                         : nullptr);
                        }
                        const u32 *idx[NumBanks];
                        for (unsigned bank = 0; bank < NumBanks; ++bank) {
                            idx[bank] =
                                scratch->indices[identical ? 0 : bank]
                                    .data();
                        }
                        resolveBankGroup(
                            banks.view(0), idx, tile.taken,
                            conditionals, config.updatePolicy, prefetch,
                            counters, bankWriteCount, mask,
                            [&](unsigned bank, std::size_t j) {
                                return bankIndexOf(config, bank, pcs[j],
                                                   hists[j]);
                            });
                    });
                if constexpr (!PerAddress) {
                    history.set(history_out);
                }
                return;
            }
        }
        replayBlockWithState(blockState<NumBanks, Storage, PerAddress>(),
                             records, count, counters, scratch);
    });
}

void
SkewedPredictor::notifyUnconditional(Addr)
{
    if (!perAddress(config)) {
        history.shiftIn(true);
    }
}

std::string
SkewedPredictor::name() const
{
    std::string label = schemeLabel(config);
    label += '-';
    if (perAddress(config)) {
        // pskew-<BHT entries>x<local bits>-<banks>x<entries>; only
        // total update is named, since partial and partial-lazy differ
        // in write traffic alone and pskew snapshots no write count.
        label += formatEntries(localHistories.size());
        label += 'x';
        label += std::to_string(config.historyBits);
        label += '-';
        label += std::to_string(config.numBanks);
        label += 'x';
        label += formatEntries(entriesPerBank());
        if (config.updatePolicy == UpdatePolicy::Total) {
            label += "-total";
        }
        return label;
    }
    label += std::to_string(config.numBanks);
    label += 'x';
    label += formatEntries(entriesPerBank());
    label += "-h";
    label += std::to_string(config.historyBits);
    switch (config.updatePolicy) {
      case UpdatePolicy::Total:
        label += "-total";
        break;
      case UpdatePolicy::Partial:
        label += "-partial";
        break;
      case UpdatePolicy::PartialLazy:
        // Shared hysteresis snapshots no write count either.
        label += config.storage == BankStorage::SharedHysteresis
            ? "-partial"
            : "-partial-lazy";
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
    return banks.storageBits() + hysteresis.storageBits() +
        u64(localHistories.size()) * config.historyBits;
}

void
SkewedPredictor::reset()
{
    banks.reset();
    hysteresis.reset(1);
    std::fill(localHistories.begin(), localHistories.end(), u16(0));
    history.reset();
    bankWriteCount = 0;
}

void
SkewedPredictor::saveState(ByteWriter &out) const
{
    // Per-scheme framing, byte-identical to the snapshots of the
    // classes this one replaced: the counter table writes one run
    // per bank.
    if (perAddress(config)) {
        out.putU64(localHistories.size());
        for (const u16 entry : localHistories) {
            out.putU16(entry);
        }
        banks.saveState(out);
        return;
    }
    if (config.storage == BankStorage::SharedHysteresis) {
        for (unsigned bank = 0; bank < config.numBanks; ++bank) {
            putBitRun(out, banks, bank);
            putBitRun(out, hysteresis, bank);
        }
        out.putU64(history.raw());
        return;
    }
    banks.saveState(out);
    out.putU64(history.raw());
    out.putU64(bankWriteCount);
}

void
SkewedPredictor::loadState(ByteReader &in)
{
    if (perAddress(config)) {
        const u64 count = in.getU64();
        if (count != localHistories.size()) {
            fatal("pskew snapshot: history table size mismatch (stored " +
                  std::to_string(count) + ", predictor has " +
                  std::to_string(localHistories.size()) + ")");
        }
        std::vector<u16> restored(localHistories.size());
        for (u16 &entry : restored) {
            entry = in.getU16();
            if (entry > mask(config.historyBits)) {
                fatal("pskew snapshot: local history exceeds " +
                      std::to_string(config.historyBits) + " bits");
            }
        }
        banks.loadState(in);
        localHistories = std::move(restored);
        return;
    }
    if (config.storage == BankStorage::SharedHysteresis) {
        // Every run is checked before any entry changes.
        const char *scheme = schemeLabel(config);
        const u8 *runs[2 * maxSkewBanks];
        for (unsigned bank = 0; bank < config.numBanks; ++bank) {
            runs[2 * bank] =
                takeBitRun(in, banks.entriesPerBank(), scheme);
            runs[2 * bank + 1] =
                takeBitRun(in, hysteresis.entriesPerBank(), scheme);
        }
        const u64 restored = in.getU64();
        for (unsigned bank = 0; bank < config.numBanks; ++bank) {
            for (u64 i = 0; i < banks.entriesPerBank(); ++i) {
                banks.set(bank, i, runs[2 * bank][i]);
            }
            for (u64 i = 0; i < hysteresis.entriesPerBank(); ++i) {
                hysteresis.set(bank, i, runs[2 * bank + 1][i]);
            }
        }
        history.set(restored);
        return;
    }
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
    config.indexing = BankIndexing::Enhanced;
    return config;
}

} // namespace bpred
