/**
 * @file
 * The text trace scanner, as a streaming TraceSource.
 *
 * TextTraceSource is the one text decoder in the repository: it
 * scans a text trace held in memory straight into the caller's
 * record buffer, one pull at a time, so the corpus runner replays a
 * .txt (or an inflated .txt.gz) without first building a Trace, and
 * parseTextTrace() (trace/trace_io.hh) is a drain of it.
 *
 * Grammar (both dialects): one record per line; '#' starts a
 * comment; fields are separated by spaces, tabs or CRs; tokens after
 * the direction are ignored. A pc is digits only (no sign), at most
 * 64 bits, and every field is a whole token. A malformed line raises
 * FatalError naming its line number, at the pull that reaches it.
 *
 * Two scan paths, selected once per source by resolveSimdMode():
 * the scalar field walk below is the reference and the only path of
 * a scalar-only build; the AVX2 line pass (trace/text_scan_simd.hh)
 * takes writer-shaped lines and hands every other line to the
 * scalar walk, so both paths produce the same records and the same
 * errors (test_trace_fuzz drains every differential case through
 * both).
 */

#pragma once

#include <string>
#include <string_view>

#include "support/simd.hh"
#include "trace/stream.hh"
#include "trace/trace_io.hh"

namespace bpred
{

/** A pull-based scanner over one text trace in memory. */
class TextTraceSource : public TraceSource
{
  public:
    /**
     * Scan @p text, borrowed: it must outlive the source.
     *
     * @param dialect detect sniffs the first non-comment line.
     * @param simd Scan path request, resolved by resolveSimdMode().
     */
    TextTraceSource(std::string_view text, std::string name,
                    TextDialect dialect = TextDialect::detect,
                    SimdMode simd = SimdMode::Auto);

    /** Scan @p text, owned by the source. */
    TextTraceSource(std::string &&text, std::string name,
                    TextDialect dialect = TextDialect::detect,
                    SimdMode simd = SimdMode::Auto);

    TextTraceSource(const TextTraceSource &) = delete;
    TextTraceSource &operator=(const TextTraceSource &) = delete;

    const std::string &name() const override { return name_; }

    /**
     * Scan up to @p max records into @p out.
     *
     * @throws FatalError naming the first bad line reached.
     */
    std::size_t pull(BranchRecord *out, std::size_t max) override;

    /**
     * An upper bound on the records still to come, from the bytes
     * left: a record line is at least "C 0 T\n" (native) or "0 1\n"
     * (CBP).
     */
    std::size_t recordBound() const;

  private:
    /** Point the scan at @p text and settle the dialect. */
    void open(std::string_view text, TextDialect dialect);

    std::string owned;
    std::string name_;
    const char *at = nullptr;
    const char *end = nullptr;

    /** The line `at` is in (1-based). */
    u64 lineNo = 1;

    /** The dialect, settled at construction: native or CBP. */
    bool native = false;

    SimdMode mode = SimdMode::Scalar;
};

} // namespace bpred
