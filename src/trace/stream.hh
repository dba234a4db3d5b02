/**
 * @file
 * Pull-based streaming trace sources.
 *
 * A TraceSource delivers a branch trace in bounded-memory chunks, so
 * a SimSession (sim/session.hh) can consume traces far larger than
 * memory. There are three kinds: MemoryTraceSource below, over an
 * in-memory Trace (the batch path and parsed text); MmapTraceSource
 * (trace/mmap_source.hh), which decodes a BPT1 image record block by
 * record block; and WorkloadStream (workloads/stream_source.hh),
 * which generates records on the fly. Sources are single-pass unless
 * they document otherwise.
 */

#pragma once

#include <memory>
#include <string>

#include "trace/trace.hh"

namespace bpred
{

/** A pull-based producer of branch records. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Benchmark name of the streamed trace. */
    virtual const std::string &name() const = 0;

    /**
     * Copy up to @p max records into @p out, in trace order.
     *
     * @return Records produced; 0 means the stream is exhausted
     *         (and every later call also returns 0).
     */
    virtual std::size_t pull(BranchRecord *out, std::size_t max) = 0;

    /**
     * Records still to come, when the source knows it exactly from
     * a TRUSTED or validated quantity; 0 means unknown. Consumers
     * size allocations by this (drainSource pre-reserves), so an
     * implementation must never report an unvalidated wire-format
     * count — return 0 instead and let the consumer grow.
     */
    virtual u64 sizeHint() const { return 0; }
};

/**
 * A TraceSource over an in-memory Trace, either borrowed (the Trace
 * must outlive the source) or owned (how text inputs, which are
 * parsed whole, enter the streaming pipeline). Supports rewind(), so
 * one materialized trace can feed many streaming runs.
 */
class MemoryTraceSource : public TraceSource
{
  public:
    /** Borrow @p trace. */
    explicit MemoryTraceSource(const Trace &trace) : trace_(&trace) {}

    /** Own @p trace. */
    explicit MemoryTraceSource(Trace &&trace)
        : owned(std::make_unique<const Trace>(std::move(trace))),
          trace_(owned.get())
    {}

    const std::string &name() const override { return trace_->name(); }
    std::size_t pull(BranchRecord *out, std::size_t max) override;
    u64 sizeHint() const override { return trace_->size() - next; }

    /** Restart the stream from the first record. */
    void rewind() { next = 0; }

  private:
    std::unique_ptr<const Trace> owned;
    const Trace *trace_;
    std::size_t next = 0;
};

/**
 * Drain @p source to completion into an in-memory Trace, pulling
 * @p chunk_records at a time.
 */
Trace drainSource(TraceSource &source, std::size_t chunk_records = 65536);

} // namespace bpred

