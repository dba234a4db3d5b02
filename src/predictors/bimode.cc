#include "predictors/bimode.hh"

#include "predictors/info_vector.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

BiModePredictor::BiModePredictor(unsigned direction_index_bits,
                                 unsigned history_bits,
                                 unsigned choice_index_bits,
                                 unsigned counter_bits)
    : takenTable(u64(1) << checkedIndexBits("bimode",
                                            direction_index_bits),
                 counter_bits,
                 // Direction tables start leaning their way.
                 counterMax(checkedCounterBits("bimode", counter_bits))),
      notTakenTable(u64(1) << direction_index_bits, counter_bits),
      choiceTable(u64(1) << checkedIndexBits("bimode", choice_index_bits),
                  counter_bits, counterThreshold(counter_bits)),
      directionIndexBits(direction_index_bits),
      historyBits(checkedHistoryBits("bimode", history_bits)),
      choiceIndexBits(choice_index_bits)
{
}

u64
BiModePredictor::directionIndexOf(Addr pc) const
{
    return gshareIndex(pc, history.raw(), historyBits,
                       directionIndexBits);
}

bool
BiModePredictor::predict(Addr pc)
{
    const bool choose_taken =
        choiceTable.predictTaken(addressIndex(pc, choiceIndexBits));
    const u64 index = directionIndexOf(pc);
    return choose_taken ? takenTable.predictTaken(index)
                        : notTakenTable.predictTaken(index);
}

void
BiModePredictor::update(Addr pc, bool taken)
{
    const u64 choice_index = addressIndex(pc, choiceIndexBits);
    const bool choose_taken = choiceTable.predictTaken(choice_index);
    const u64 index = directionIndexOf(pc);

    SatCounterArray &selected =
        choose_taken ? takenTable : notTakenTable;
    const bool selected_correct =
        selected.predictTaken(index) == taken;

    // Only the selected direction table trains — the segregation
    // that keeps each table's population like-minded.
    selected.update(index, taken);

    // Choice partial update: leave the choice alone when it
    // "mischose" but the selected table still got the branch right.
    if (!(choose_taken != taken && selected_correct)) {
        choiceTable.update(choice_index, taken);
    }
    history.shiftIn(taken);
}

void
BiModePredictor::notifyUnconditional(Addr)
{
    history.shiftIn(true);
}

std::string
BiModePredictor::name() const
{
    return "bimode-2x" + formatEntries(takenTable.size()) + "+" +
        formatEntries(choiceTable.size()) + "-h" +
        std::to_string(historyBits);
}

u64
BiModePredictor::storageBits() const
{
    return takenTable.storageBits() + notTakenTable.storageBits() +
        choiceTable.storageBits();
}

void
BiModePredictor::reset()
{
    takenTable.reset(counterMax(takenTable.width()));
    notTakenTable.reset();
    choiceTable.reset(counterThreshold(choiceTable.width()));
    history.reset();
}

void
BiModePredictor::saveState(ByteWriter &out) const
{
    takenTable.saveState(out);
    notTakenTable.saveState(out);
    choiceTable.saveState(out);
    out.putU64(history.raw());
}

void
BiModePredictor::loadState(ByteReader &in)
{
    takenTable.loadState(in);
    notTakenTable.loadState(in);
    choiceTable.loadState(in);
    history.set(in.getU64());
}

} // namespace bpred
