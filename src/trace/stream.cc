#include "trace/stream.hh"

#include <algorithm>

#include "support/aligned.hh"
#include "support/check.hh"
#include "support/logging.hh"

namespace bpred
{

std::size_t
MemoryTraceSource::pull(BranchRecord *out, std::size_t max)
{
    BP_DCHECK(next <= trace_->size(),
              "trace cursor ran past the end");
    const std::size_t available = trace_->size() - next;
    const std::size_t produced = std::min(max, available);
    const BranchRecord *begin = trace_->records().data() + next;
    std::copy(begin, begin + produced, out);
    next += produced;
    return produced;
}

Trace
drainSource(TraceSource &source, std::size_t chunk_records)
{
    if (chunk_records == 0) {
        fatal("drainSource: zero chunk size");
    }
    Trace trace(source.name());
    if (const u64 hint = source.sizeHint()) {
        // bp_lint: allow(reserve-untrusted): sizeHint() contractually
        // reports only validated counts (a BPT1 image's count was
        // bounded by its byte length when the image was made), so
        // this cannot amplify a corrupt header.
        trace.reserve(static_cast<std::size_t>(hint));
    }
    AlignedVector<BranchRecord> buffer(chunk_records);
    while (const std::size_t n =
               source.pull(buffer.data(), buffer.size())) {
        BP_CHECK(n <= buffer.size(),
                 "TraceSource::pull produced more than requested");
        trace.append(buffer.data(), n);
    }
    return trace;
}

} // namespace bpred
