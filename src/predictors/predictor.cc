#include "predictors/predictor.hh"

#include <cstring>
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

void
Predictor::notifyUnconditional(Addr)
{
}

void
Predictor::replayBlock(const BranchRecord *records, std::size_t count,
                       ReplayCounters &counters, ReplayScratch *scratch)
{
    // The reference path: split predict()/update() per branch.
    // Overrides delegate here while a probe is attached, so this
    // loop defines the observable behaviour of every block replay.
    struct SplitStepState
    {
        Predictor *predictor;

        bool
        step(Addr pc, bool taken)
        {
            const bool prediction = predictor->predict(pc);
            predictor->update(pc, taken);
            return prediction;
        }

        void unconditional(Addr pc) { predictor->notifyUnconditional(pc); }

        void commit() {}
    };
    replayBlockWithState(SplitStepState{this}, records, count,
                         counters, scratch);
}

unsigned
checkedIndexBits(std::string_view scheme, unsigned bits)
{
    if (bits < 1 || bits > maxIndexBits) {
        fatal(std::string(scheme) + ": index width " +
              std::to_string(bits) + " outside 1.." +
              std::to_string(maxIndexBits));
    }
    return bits;
}

unsigned
checkedHistoryBits(std::string_view scheme, unsigned bits,
                   unsigned max_bits)
{
    if (bits > max_bits) {
        fatal(std::string(scheme) + ": history length " +
              std::to_string(bits) + " over " +
              std::to_string(max_bits));
    }
    return bits;
}

unsigned
checkedCounterBits(std::string_view scheme, unsigned bits)
{
    if (bits < 1 || bits > 8) {
        fatal(std::string(scheme) + ": counter width " +
              std::to_string(bits) + " outside 1..8");
    }
    return bits;
}

void
Predictor::saveState(ByteWriter &) const
{
    fatal("predictor '" + name() + "': snapshot not supported");
}

void
Predictor::loadState(ByteReader &)
{
    fatal("predictor '" + name() + "': snapshot not supported");
}

void
savePredictorState(const Predictor &predictor, std::string &out)
{
    out.clear();
    ByteWriter writer(out);
    writer.putBytes(snapshotMagic, sizeof(snapshotMagic));
    writer.putU8(snapshotVersion);
    writer.putString(predictor.name());
    predictor.saveState(writer);
}

void
loadPredictorState(Predictor &predictor, std::string_view bytes)
{
    ByteReader reader(bytes);
    if (reader.remaining() < sizeof(snapshotMagic) ||
        std::memcmp(reader.take(sizeof(snapshotMagic)), snapshotMagic,
                    sizeof(snapshotMagic)) != 0) {
        fatal("predictor snapshot: bad magic (not a BPS1 snapshot)");
    }
    const u8 version = reader.getU8();
    if (version != snapshotVersion) {
        fatal("predictor snapshot: unsupported version " +
              std::to_string(version));
    }
    const std::string_view stored_name = reader.getString();
    if (stored_name != predictor.name()) {
        fatal("predictor snapshot: configuration mismatch (snapshot "
              "of '" + std::string(stored_name) + "', predictor is '" +
              predictor.name() + "')");
    }
    predictor.loadState(reader);
    if (!reader.atEnd()) {
        fatal("predictor snapshot: trailing bytes");
    }
}

void
savePredictorState(const Predictor &predictor, std::ostream &os)
{
    std::string bytes;
    savePredictorState(predictor, bytes);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!os) {
        fatal("predictor snapshot: write failure");
    }
}

void
loadPredictorState(Predictor &predictor, std::istream &is)
{
    std::string bytes;
    char chunk[4096];
    do {
        is.read(chunk, sizeof(chunk));
        bytes.append(chunk, static_cast<std::size_t>(is.gcount()));
    } while (is);
    if (is.bad()) {
        fatal("predictor snapshot: read failure");
    }
    loadPredictorState(predictor, bytes);
}

void
saveSnapshotFile(const Predictor &predictor,
                 const std::filesystem::path &path)
{
    std::string bytes;
    savePredictorState(predictor, bytes);
    if (!writeFileBytes(path.string(), bytes)) {
        fatal("predictor snapshot: cannot write '" + path.string() +
              "'");
    }
}

void
loadSnapshotFile(Predictor &predictor, const std::filesystem::path &path)
{
    std::string bytes;
    if (!readFileInto(path.string(), bytes)) {
        fatal("predictor snapshot: cannot read '" + path.string() + "'");
    }
    loadPredictorState(predictor, bytes);
}

} // namespace bpred
