#include "predictors/predictor.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "predictors/block_kernel.hh"
#include "support/logging.hh"
#include "support/serialize.hh"

namespace bpred
{

namespace
{

constexpr char snapshotMagic[4] = {'B', 'P', 'S', '1'};
constexpr u8 snapshotVersion = 1;

} // namespace

Outcome
Predictor::predictAndUpdate(Addr pc, bool taken)
{
    const bool prediction = predict(pc);
    update(pc, taken);
    return {prediction};
}

void
Predictor::notifyUnconditional(Addr)
{
}

void
Predictor::replayBlock(const BranchRecord *records, std::size_t count,
                       ReplayCounters &counters, ReplayScratch *scratch)
{
    // Scalar reference path: one virtual fused step per branch.
    // Overrides delegate here while a probe is attached, so this
    // loop defines the observable behaviour of every block replay.
    struct VirtualStepState
    {
        Predictor *predictor;

        bool
        step(Addr pc, bool taken)
        {
            return predictor->predictAndUpdate(pc, taken).prediction;
        }

        void unconditional(Addr pc) { predictor->notifyUnconditional(pc); }

        void commit() {}
    };
    replayBlockWithState(VirtualStepState{this}, records, count,
                         counters, scratch);
}

void
Predictor::saveState(std::ostream &) const
{
    fatal("predictor '" + name() + "': snapshot not supported");
}

void
Predictor::loadState(std::istream &)
{
    fatal("predictor '" + name() + "': snapshot not supported");
}

void
savePredictorState(const Predictor &predictor, std::ostream &os)
{
    os.write(snapshotMagic, sizeof(snapshotMagic));
    putU8(os, snapshotVersion);
    putString(os, predictor.name());
    predictor.saveState(os);
    if (!os) {
        fatal("predictor snapshot: write failure");
    }
}

void
loadPredictorState(Predictor &predictor, std::istream &is)
{
    char magic[4] = {};
    is.read(magic, sizeof(magic));
    if (!is || !std::equal(magic, magic + 4, snapshotMagic)) {
        fatal("predictor snapshot: bad magic (not a BPS1 snapshot)");
    }
    const u8 version = getU8(is);
    if (version != snapshotVersion) {
        fatal("predictor snapshot: unsupported version " +
              std::to_string(version));
    }
    const std::string stored_name = getString(is);
    if (stored_name != predictor.name()) {
        fatal("predictor snapshot: configuration mismatch (snapshot "
              "of '" + stored_name + "', predictor is '" +
              predictor.name() + "')");
    }
    predictor.loadState(is);
}

void
savePredictorState(const Predictor &predictor, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        fatal("predictor snapshot: cannot open '" + path +
              "' for writing");
    }
    savePredictorState(predictor, os);
    if (!os) {
        fatal("predictor snapshot: error while writing '" + path +
              "'");
    }
}

void
loadPredictorState(Predictor &predictor, const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        fatal("predictor snapshot: cannot open '" + path +
              "' for reading");
    }
    loadPredictorState(predictor, is);
}

} // namespace bpred
