#include "predictors/single_table.hh"

#include "predictors/block_kernel.hh"
#include "predictors/block_kernel_simd.hh"
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

/** The scheme keyword an index function names. */
const char *
schemeName(TableIndex index)
{
    switch (index) {
      case TableIndex::Address:
        return "bimodal";
      case TableIndex::Xor:
        return "gshare";
      case TableIndex::Concat:
        return "gselect";
    }
    panic("single table: unknown index function");
}

/** True when @p index reads the global history (all but bimodal). */
constexpr bool
usesHistory(TableIndex index)
{
    return index != TableIndex::Address;
}

/**
 * Hot state lifted into locals (see block_kernel.hh): the counter
 * view, a by-value copy of the history register, and the index
 * geometry stay in registers across the block; commit() publishes
 * the advanced history back to the predictor.
 */
template <TableIndex Index>
struct SingleTableBlockState
{
    SatCounterArray::View table;
    GlobalHistory history;
    unsigned historyBits;
    unsigned indexBits;
    GlobalHistory *historyOut;

    bool
    step(Addr pc, bool taken)
    {
        const u64 index =
            tableIndex(Index, pc, history.raw(), historyBits, indexBits);
        const bool prediction = table.predictTaken(index);
        table.update(index, taken);
        if constexpr (usesHistory(Index)) {
            history.shiftIn(taken);
        }
        return prediction;
    }

    void
    unconditional(Addr)
    {
        if constexpr (usesHistory(Index)) {
            history.shiftIn(true);
        }
    }

    void commit() { *historyOut = history; }
};

} // namespace

SingleTablePredictor::SingleTablePredictor(TableIndex index,
                                           unsigned index_bits,
                                           unsigned history_bits,
                                           unsigned counter_bits)
    : index(index),
      table(u64(1) << checkedIndexBits(schemeName(index), index_bits),
            checkedCounterBits(schemeName(index), counter_bits)),
      indexBits(index_bits),
      historyBits_(checkedHistoryBits(schemeName(index), history_bits))
{
}

bool
SingleTablePredictor::predict(Addr pc)
{
    return table.predictTaken(
        tableIndex(index, pc, history.raw(), historyBits_, indexBits));
}

void
SingleTablePredictor::update(Addr pc, bool taken)
{
    const u64 slot =
        tableIndex(index, pc, history.raw(), historyBits_, indexBits);
    if (probeSink) [[unlikely]] {
        probeSink->onResolved({pc, table.predictTaken(slot), taken});
    }
    const u8 before = table.value(slot);
    table.update(slot, taken);
    if (probeSink && table.value(slot) != before) [[unlikely]] {
        probeSink->onCounterWrite({0, before, table.value(slot)});
    }
    if (usesHistory(index)) {
        history.shiftIn(taken);
    }
}

void
SingleTablePredictor::replayBlock(const BranchRecord *records,
                                  std::size_t count,
                                  ReplayCounters &counters,
                                  ReplayScratch *scratch)
{
    if (probeSink) [[unlikely]] {
        // Scalar delegation keeps the event stream bit-identical.
        Predictor::replayBlock(records, count, counters, scratch);
        return;
    }
    const bool phase_split = scratch && simdIndexWidthOk(indexBits) &&
        resolveSimdMode(scratch->mode) == SimdMode::Avx2;
    // One kernel instantiation per index function.
    const auto run = [&]<TableIndex Index>() {
        if (!phase_split) {
            replayBlockWithState(
                SingleTableBlockState<Index>{table.view(), history,
                                             historyBits_, indexBits,
                                             &history},
                records, count, counters, scratch);
            return;
        }
        // Phase-split path (block_kernel_simd.hh): history is
        // outcome-determined, so compaction's speculative advance is
        // exact and each tile's indices vectorize up front. The flat
        // table is a 1-bank interleaved group; under Total update
        // its transition table is the saturating counter itself.
        const bool prefetch = simdWantsCounterPrefetch(table.size());
        u64 writes = 0; // one per conditional; nothing reports it
        const u64 history_out = replayTiled(
            records, count, history.raw(), *scratch, 1,
            [&](const ReplayTile &tile, u8 *mask) {
                const u64 *pcs = tile.pc;
                const u64 *hists = tile.history;
                u32 *out = scratch->indices[0].data();
                fillTableIndices(Index, pcs, hists, tile.conditionals,
                                 historyBits_, indexBits, out);
                const u32 *const idx[1] = {out};
                resolveBankGroup(
                    table.view(), idx, tile.taken, tile.conditionals,
                    UpdatePolicy::Total, prefetch,
                    counters, writes, mask,
                    [&](unsigned, std::size_t j) {
                        return tableIndex(Index, pcs[j], hists[j],
                                          historyBits_, indexBits);
                    });
            });
        if constexpr (usesHistory(Index)) {
            history.set(history_out);
        }
    };
    switch (index) {
      case TableIndex::Address:
        run.template operator()<TableIndex::Address>();
        break;
      case TableIndex::Xor:
        run.template operator()<TableIndex::Xor>();
        break;
      case TableIndex::Concat:
        run.template operator()<TableIndex::Concat>();
        break;
    }
}

void
SingleTablePredictor::notifyUnconditional(Addr)
{
    if (usesHistory(index)) {
        history.shiftIn(true);
    }
}

std::string
SingleTablePredictor::name() const
{
    std::string label =
        std::string(schemeName(index)) + "-" + formatEntries(table.size());
    if (usesHistory(index)) {
        label += "-h" + std::to_string(historyBits_);
    }
    return label;
}

void
SingleTablePredictor::reset()
{
    table.reset();
    history.reset();
}

void
SingleTablePredictor::saveState(ByteWriter &out) const
{
    table.saveState(out);
    if (usesHistory(index)) {
        out.putU64(history.raw());
    }
}

void
SingleTablePredictor::loadState(ByteReader &in)
{
    table.loadState(in);
    if (usesHistory(index)) {
        history.set(in.getU64());
    }
}

} // namespace bpred
