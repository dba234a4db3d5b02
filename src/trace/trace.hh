/**
 * @file
 * In-memory branch trace container and summary statistics.
 */

#pragma once

#include <string>
#include <vector>

#include "support/types.hh"
#include "trace/branch_record.hh"

namespace bpred
{

/**
 * An in-memory branch trace: a named, ordered sequence of
 * BranchRecords. The container is deliberately thin — a vector with
 * a name — so simulation loops iterate at memory speed.
 */
class Trace
{
  public:
    Trace() = default;

    /** Construct an empty trace with a benchmark name. */
    explicit Trace(std::string name) : name_(std::move(name)) {}

    /** Benchmark name ("groff", "real_gcc", ...). */
    const std::string &name() const { return name_; }

    /** Rename the trace. */
    void setName(std::string name) { name_ = std::move(name); }

    /** Append one record. */
    void
    append(const BranchRecord &record)
    {
        records_.push_back(record);
    }

    /** Append @p count records in one insertion (bulk drains). */
    void
    append(const BranchRecord *records, std::size_t count)
    {
        records_.insert(records_.end(), records, records + count);
    }

    /** Append a conditional branch. */
    void
    appendConditional(Addr pc, bool taken)
    {
        records_.push_back({pc, taken, true});
    }

    /** Append an unconditional branch (always taken). */
    void
    appendUnconditional(Addr pc)
    {
        records_.push_back({pc, true, false});
    }

    /**
     * Pre-allocate for @p n records. Callers sizing this from a
     * decoded header must validate first (bpt::readHeader() bounds
     * the declared count by the image's byte length).
     */
    // bp_lint: allow(reserve-untrusted): pass-through API; decode
    // paths validate before calling (see drainSource()).
    void reserve(std::size_t n) { records_.reserve(n); }

    /**
     * Release excess capacity after record-by-record generation
     * (generators over-reserve from the conditional-branch target;
     * long-lived suite traces should not carry the slack).
     */
    void shrinkToFit() { records_.shrink_to_fit(); }

    /** Total records, conditional and unconditional. */
    std::size_t size() const { return records_.size(); }

    /** True when no records are present. */
    bool empty() const { return records_.empty(); }

    /** Record at position @p index. */
    const BranchRecord &
    operator[](std::size_t index) const
    {
        return records_[index];
    }

    /** Underlying records. */
    const std::vector<BranchRecord> &records() const { return records_; }

    auto begin() const { return records_.begin(); }
    auto end() const { return records_.end(); }

    /** Drop all records (keeps the name). */
    void clear() { records_.clear(); }

  private:
    std::string name_;
    std::vector<BranchRecord> records_;
};

/**
 * Summary statistics over a trace — the quantities Table 1 and the
 * first columns of Table 2 report.
 */
struct TraceStats
{
    /** Dynamic conditional branch count. */
    u64 dynamicConditional = 0;

    /** Distinct conditional branch addresses. */
    u64 staticConditional = 0;

    /** Dynamic unconditional branch count. */
    u64 dynamicUnconditional = 0;

    /** Distinct unconditional branch addresses. */
    u64 staticUnconditional = 0;

    /** Taken conditional branches. */
    u64 takenConditional = 0;

    /** Fraction of conditional branches that were taken. */
    double takenRatio() const;

    /** Dynamic conditionals per static conditional site. */
    double dynamicPerStatic() const;
};

/** Compute summary statistics for @p trace. */
TraceStats computeTraceStats(const Trace &trace);

} // namespace bpred

