#include "sim/session.hh"

#include <algorithm>
#include <chrono>
#include <vector>

#include "support/aligned.hh"
#include "support/check.hh"
#include "support/logging.hh"
#include "support/probe.hh"
#include "support/site_table.hh"
#include "support/stat_registry.hh"
#include "support/tracing.hh"

namespace bpred
{

namespace
{

/** Records per replayBlock() call while attribution reads the mask
 * (~128 KiB of records plus an 8 KiB mask: L2-resident). */
constexpr std::size_t attributionBlockRecords = 8192;

} // namespace

SimSession::SimSession(Predictor &predictor, const SimOptions &options,
                       std::string trace_name)
    : predictor(predictor), options(options),
      sites(options.topSites > 0 ? options.topSites : 1)
{
    result.predictorName = predictor.name();
    result.traceName = std::move(trace_name);
    result.storageBits = predictor.storageBits();
    result.windowSize = options.windowSize;
    if (options.probe) {
        previousProbe = predictor.attachProbe(options.probe);
    }
}

SimSession::~SimSession()
{
    if (!finished_ && options.probe) {
        predictor.attachProbe(previousProbe);
    }
}

void
SimSession::setTraceName(std::string trace_name)
{
    if (finished_) {
        fatal("SimSession: setTraceName after finish");
    }
    result.traceName = std::move(trace_name);
}

void
SimSession::useSharedScratch(ReplayScratch *shared)
{
    scratch = shared ? shared : &ownScratch;
}

void
SimSession::feed(const BranchRecord *records, std::size_t count)
{
    if (finished_) {
        fatal("SimSession: feed after finish");
    }
    TRACE_SCOPE("session", "feed", seen, count);
    const u64 feedStart =
        options.metrics ? trace::nowNs() : 0;
    feedBlocks(records, count);
    if (options.metrics) {
        StatRegistry &metrics = *options.metrics;
        ++metrics.counter("session.feeds");
        metrics.counter("session.records") += count;
        metrics.running("session.feed_seconds")
            .sample(double(trace::nowNs() - feedStart) / 1e9);
    }
}

void
SimSession::feedBlocks(const BranchRecord *records, std::size_t count)
{
    constexpr u64 unbounded = ~u64(0);
    const u64 warmup = options.warmupBranches;
    const u64 flush_interval = options.flushInterval;
    const u64 window_size = options.windowSize;
    // Per-branch attribution reads the kernels' mispredict mask.
    const bool want_mask =
        options.topSites > 0 || options.siteTally != nullptr;

    // Re-stamped every feed: a gang-shared scratch is passed through
    // members whose SimOptions may differ.
    scratch->mode = options.simd;
    scratch->recordMispredicts = want_mask;

    std::size_t at = 0;
    while (at < count) {
        // The next segment may consume at most `limit` conditional
        // branches: up to the next flush, the end of warmup, or the
        // close of the open window — whichever comes first. Each
        // bound is strictly positive (every boundary action below
        // re-arms its counter), so the loop always advances.
        const bool in_warmup = seen < warmup;
        u64 limit = unbounded;
        if (flush_interval) {
            limit = std::min(limit, flush_interval - sinceFlush);
        }
        if (in_warmup) {
            limit = std::min(limit, warmup - seen);
        } else if (window_size) {
            limit = std::min(limit, window_size - window.branches);
        }

        // Segment end: just past the limit-th conditional record,
        // or the chunk end. Trailing unconditionals fall into the
        // next segment, so a boundary action (flush) always precedes
        // the notifyUnconditional() of the records after it. With
        // attribution on, segments are also capped so the mask and
        // the records attribute() re-reads are still cache-resident.
        const std::size_t stop = want_mask
            ? std::min(count, at + attributionBlockRecords)
            : count;
        std::size_t end = stop;
        if (limit != unbounded) {
            u64 conditionals = 0;
            for (end = at; end < stop && conditionals < limit;
                 ++end) {
                conditionals += records[end].conditional ? 1 : 0;
            }
        }

        ReplayCounters tally;
        if (want_mask) {
            scratch->ensureMispredicts(end - at);
        }
        predictor.replayBlock(records + at, end - at, tally, scratch);
        if (want_mask) {
            attribute(records + at, end - at, in_warmup);
        }
        at = end;

        seen += tally.conditionals;
        if (flush_interval) {
            sinceFlush += tally.conditionals;
            if (sinceFlush == flush_interval) {
                TRACE_INSTANT("session", "flush");
                predictor.reset();
                sinceFlush = 0;
            }
        }
        if (in_warmup) {
            if (seen >= warmup) {
                TRACE_INSTANT("session", "warmup-complete");
            }
            continue; // warmup segments train without scoring
        }
        result.conditionals += tally.conditionals;
        result.mispredicts += tally.mispredicts;
        if (window_size) {
            window.branches += tally.conditionals;
            window.mispredicts += tally.mispredicts;
            if (window.branches == window_size) {
                result.windows.push_back(window);
                window = WindowSample();
            }
        }
    }
}

void
SimSession::attribute(const BranchRecord *records, std::size_t count,
                      bool in_warmup)
{
    // The k-th conditional record of the segment owns mask byte k.
    const u8 *mask = scratch->mispredicted.data();
    if (SiteTable *const tally = options.siteTally) {
        std::size_t k = 0;
        for (std::size_t i = 0; i < count; ++i) {
            if (records[i].conditional) {
                SiteCounts &site = tally->at(records[i].pc);
                ++site.branches;
                site.mispredicts += mask[k++];
            }
        }
    }
    if (options.topSites == 0 || in_warmup) {
        return;
    }
    // Mispredicted scored sites reach the top-K counter in trace
    // order, exactly as a per-branch loop would add them. They are
    // compacted branch-free first: both the conditional bit and the
    // mask byte are data no host predictor guesses well. Reading
    // mask[k] at an unconditional record stays in bounds (k is then
    // below the segment's record count) and is discarded.
    constexpr std::size_t batch = 256;
    Addr missed[batch];
    std::size_t k = 0;
    for (std::size_t base = 0; base < count; base += batch) {
        const std::size_t end = std::min(count, base + batch);
        std::size_t n = 0;
        for (std::size_t i = base; i < end; ++i) {
            const u8 conditional = u8(records[i].conditional);
            missed[n] = records[i].pc;
            n += mask[k] & conditional;
            k += conditional;
        }
        for (std::size_t j = 0; j < n; ++j) {
            sites.add(missed[j]);
        }
    }
}

SimResult
SimSession::finish()
{
    if (finished_) {
        fatal("SimSession: finish called twice");
    }
    TRACE_SCOPE("session", "finish");
    finished_ = true;

    if (options.metrics) {
        options.metrics->counter("session.conditionals") = seen;
    }

    if (options.windowSize > 0 && window.branches > 0) {
        result.windows.push_back(window);
        window = WindowSample();
    }
    if (options.topSites > 0) {
        for (const TopKCounter::Item &item : sites.items()) {
            result.topSites.push_back(
                {item.key, item.count, item.overcount});
        }
    }
    if (options.probe) {
        predictor.attachProbe(previousProbe);
    }
    return std::move(result);
}

SimResult
simulateSource(Predictor &predictor, TraceSource &source,
               const SimOptions &options, std::size_t chunk_records)
{
    if (chunk_records == 0) {
        fatal("simulateSource: zero chunk size");
    }
    SimSession session(predictor, options, source.name());
    // Cache-line aligned so the block kernels' prefetch/vector
    // passes never straddle a line at the chunk head.
    AlignedVector<BranchRecord> chunk(chunk_records);
    BP_DCHECK(isCacheAligned(chunk.data()),
              "simulateSource: chunk buffer not cache aligned");
    while (true) {
        std::size_t n = 0;
        {
            TRACE_SCOPE("session", "refill", session.conditionalsSeen(),
                        chunk_records);
            n = source.pull(chunk.data(), chunk.size());
        }
        if (n == 0) {
            break;
        }
        session.feed(chunk.data(), n);
    }
    return session.finish();
}

} // namespace bpred
