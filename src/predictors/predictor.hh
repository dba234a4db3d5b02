/**
 * @file
 * The abstract conditional-branch predictor interface.
 */

#pragma once

#include <cstddef>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <string_view>

#include "support/types.hh"
#include "trace/branch_record.hh"

namespace bpred
{

class ByteReader;
class ByteWriter;
class ProbeSink;
struct ReplayScratch;

/**
 * Tallies accumulated by replayBlock(): everything the simulation
 * loop needs per block. Per-branch attribution (top sites, site
 * tallies) reads the scratch's mispredict mask instead.
 */
struct ReplayCounters
{
    /** Conditional branches resolved in the block. */
    u64 conditionals = 0;

    /** Mispredicted conditional branches among them. */
    u64 mispredicts = 0;
};

/**
 * Abstract conditional-branch direction predictor.
 *
 * Contract: for every *conditional* branch, in trace order, the
 * simulation driver calls predict(pc) followed by update(pc, taken),
 * or hands a whole block to replayBlock(), which must be observably
 * identical to that split loop (same predictions, same state
 * evolution, same probe events). It calls notifyUnconditional(pc)
 * for every unconditional branch. update() must train with the
 * machine state as it was at predict() time (i.e. the pre-branch
 * global history) and only then advance that state. Predictors that
 * keep global history shift unconditional branches in as taken, as
 * the paper does.
 */
class Predictor
{
  public:
    virtual ~Predictor() = default;

    /** Predicted direction for the conditional branch at @p pc. */
    virtual bool predict(Addr pc) = 0;

    /**
     * Resolve the conditional branch at @p pc with outcome @p taken:
     * train the tables and advance any internal history.
     */
    virtual void update(Addr pc, bool taken) = 0;

    /**
     * Observe an unconditional branch at @p pc. Default: no effect.
     * Global-history predictors shift in a taken outcome.
     */
    virtual void notifyUnconditional(Addr pc);

    /**
     * Resolve a whole block of records in trace order — conditional
     * branches as predict() then update(), unconditional ones
     * through notifyUnconditional() — adding the block's conditional
     * and misprediction counts to @p counters.
     *
     * The base default is exactly that split loop, so it defines
     * the observable behaviour of every block replay. Hot schemes
     * override it with a devirtualized kernel (see
     * predictors/block_kernel.hh) so the inner loop costs one
     * virtual dispatch per block instead of two per branch — the
     * gang replay engine's fast path (sim/gang.hh). Overrides must
     * delegate to this default while a probe is attached so
     * telemetry event streams stay bit-identical.
     *
     * @p scratch, when non-null, lends the session's SoA staging
     * buffers (predictors/replay_scratch.hh) and carries the
     * requested SimdMode: schemes with a phase-split kernel may then
     * precompute the block's table indices with the vectorized
     * index pass and resolve fed by them — still byte-identical to
     * the split loop. A null scratch always runs the scalar block
     * kernels. When the scratch's recordMispredicts is set, every
     * implementation — including this default and the probed
     * delegation to it — also writes one mispredict byte per
     * conditional record into the scratch, in trace order.
     */
    virtual void replayBlock(const BranchRecord *records,
                             std::size_t count,
                             ReplayCounters &counters,
                             ReplayScratch *scratch = nullptr);

    /** Short configuration name, e.g. "gshare-16K-h12". */
    virtual std::string name() const = 0;

    /**
     * Total predictor storage in bits: the hardware cost metric the
     * paper compares designs by. Tag-less tables count only counter
     * bits; tagged structures include tags.
     */
    virtual u64 storageBits() const = 0;

    /** Return to the power-on state. */
    virtual void reset() = 0;

    /**
     * True when this predictor implements saveState()/loadState().
     * Default: false (the base-class implementations throw).
     */
    virtual bool supportsSnapshot() const { return false; }

    /**
     * Serialize the complete mutable predictor state — counters,
     * history registers, chooser state — to @p out so a later
     * loadState() on an identically-configured instance reproduces
     * every subsequent prediction exactly. This is the raw payload;
     * callers wanting a self-describing on-disk artifact should use
     * savePredictorState(), which frames it with a versioned magic
     * and the configuration name.
     *
     * @throws FatalError when the predictor does not support
     *         snapshotting (see supportsSnapshot()).
     */
    virtual void saveState(ByteWriter &out) const;

    /**
     * Restore state written by saveState() on a predictor with the
     * same configuration. Every piece of mutable state must be
     * overwritten, not merged: loading into a predictor that has
     * already run (a recycled serving-cache spare) must leave it
     * indistinguishable from a fresh predictor given the same bytes.
     * After a throw the predictor's state is unspecified (but
     * valid), so callers that need it intact load into a spare.
     *
     * @throws FatalError on unsupported predictors, geometry
     *         mismatches or corrupt bytes.
     */
    virtual void loadState(ByteReader &in);

    /**
     * Attach a telemetry sink (see support/probe.hh); nullptr
     * detaches. Instrumented predictors publish per-prediction
     * events to the sink from update(); predictors without
     * instrumentation simply ignore it. Returns the previously
     * attached sink so callers can restore it.
     */
    ProbeSink *
    attachProbe(ProbeSink *sink)
    {
        ProbeSink *previous = probeSink;
        probeSink = sink;
        return previous;
    }

    /** The currently attached telemetry sink (nullptr if none). */
    ProbeSink *probe() const { return probeSink; }

  protected:
    /**
     * The attached sink, null in the common case. Publishing sites
     * must null-check so the uninstrumented hot path stays a single
     * predictable branch.
     */
    ProbeSink *probeSink = nullptr;
};

/** Widest counter-table index a constructor accepts (2^28 entries). */
constexpr unsigned maxIndexBits = 28;

/**
 * @p bits, checked as a table index width for @p scheme: fatal()
 * outside 1..maxIndexBits. Runs in constructors' initializer lists,
 * before any table is sized from it.
 */
unsigned checkedIndexBits(std::string_view scheme, unsigned bits);

/**
 * Longest history an information-vector key (predictors/
 * info_vector.hh) holds: past it the history shifts the address out
 * of the 64-bit key.
 */
constexpr unsigned maxKeyHistoryBits = 44;

/**
 * @p bits, checked as a global-history length for @p scheme: fatal()
 * over @p max_bits, by default 64, the width of the history
 * register. Schemes keyed by the information vector pass
 * maxKeyHistoryBits.
 */
unsigned checkedHistoryBits(std::string_view scheme, unsigned bits,
                            unsigned max_bits = 64);

/*
 * savePredictorState()/loadPredictorState() take snapshot bytes or a
 * stream (read to its end or written in full); files have their own
 * names, saveSnapshotFile()/loadSnapshotFile(), so a path can never
 * be mistaken for bytes by overload resolution.
 */

/**
 * Write a framed, self-describing snapshot of @p predictor into
 * @p out, replacing its contents (its capacity is kept, so a buffer
 * reused across saves stops allocating): the "BPS1" magic, a format
 * version, the predictor's configuration name, then the saveState()
 * payload. The name doubles as a configuration fingerprint —
 * loadPredictorState() refuses to restore into a predictor whose
 * name differs.
 *
 * @throws FatalError when snapshotting is unsupported.
 */
void savePredictorState(const Predictor &predictor, std::string &out);

/**
 * Restore a snapshot written by savePredictorState(), decoding
 * @p bytes in place. The snapshot must span all of @p bytes.
 *
 * @throws FatalError on a bad magic, an unsupported version, a
 *         configuration-name mismatch, a corrupt or truncated
 *         payload, or trailing bytes.
 */
void loadPredictorState(Predictor &predictor, std::string_view bytes);

/** A string literal is a file name, never bytes: use loadSnapshotFile(). */
void loadPredictorState(Predictor &predictor, const char *path) = delete;

/**
 * Stream wrapper: savePredictorState() into a buffer, then write it
 * to @p os. @throws FatalError as above or on a write failure.
 */
void savePredictorState(const Predictor &predictor, std::ostream &os);

/**
 * Stream wrapper: read @p is to its end, then loadPredictorState()
 * the bytes (so trailing bytes are an error here too).
 */
void loadPredictorState(Predictor &predictor, std::istream &is);

/** savePredictorState() to a file. @throws FatalError on I/O error. */
void saveSnapshotFile(const Predictor &predictor,
                      const std::filesystem::path &path);

/**
 * loadPredictorState() from a whole file. @throws FatalError on an
 * I/O error or as the span form does.
 */
void loadSnapshotFile(Predictor &predictor,
                      const std::filesystem::path &path);

} // namespace bpred

