#include "trace/adapters.hh"

#include <algorithm>
#include <fstream>

#include "support/aligned.hh"
#include "support/logging.hh"
#include "support/tracing.hh"
#include "trace/bpt_format.hh"
#include "trace/mmap_source.hh"
#include "trace/trace_io.hh"

#if BPRED_HAVE_ZLIB
#include <zlib.h>
#endif

namespace bpred
{

namespace
{

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
        text.compare(text.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

/** "dir/real_gcc.txt.gz" -> "real_gcc". */
std::string
traceNameFromPath(const std::string &path)
{
    const std::size_t slash = path.find_last_of("/\\");
    std::string stem =
        slash == std::string::npos ? path : path.substr(slash + 1);
    for (const char *suffix : {".gz", ".bpt", ".txt", ".trace"}) {
        if (endsWith(stem, suffix)) {
            stem.erase(stem.size() - std::string(suffix).size());
        }
    }
    return stem;
}

/**
 * Inflate a whole .gz file into memory. Growth is driven by the
 * actual inflated bytes, never by a length field, so a hostile
 * archive cannot claim its way into an absurd allocation.
 */
std::string
inflateFile(const std::string &path)
{
#if BPRED_HAVE_ZLIB
    TRACE_SCOPE("ingest", "gz-inflate");
    gzFile gz = gzopen(path.c_str(), "rb");
    if (gz == nullptr) {
        fatal("trace: cannot open '" + path + "' for reading");
    }
    std::string inflated;
    char chunk[256 * 1024];
    for (;;) {
        const int got = gzread(gz, chunk, sizeof(chunk));
        if (got < 0) {
            int err = 0;
            const char *msg = gzerror(gz, &err);
            const std::string detail(msg != nullptr ? msg : "");
            gzclose(gz);
            fatal("trace: gzip error in '" + path + "': " + detail);
        }
        if (got == 0) {
            break;
        }
        inflated.append(chunk, static_cast<std::size_t>(got));
    }
    gzclose(gz);
    return inflated;
#else
    fatal("trace: '" + path +
          "' is gzip-compressed but this build lacks zlib");
#endif
}

/**
 * Decode a whole BPT1 image already in memory (an inflated .gz):
 * the same shared header validator and bulk decoder the mmap path
 * uses, just with a materialized destination.
 */
Trace
decodeBptImage(const std::string &image, const std::string &path)
{
    const u8 *data = reinterpret_cast<const u8 *>(image.data());
    std::size_t header_bytes = 0;
    const bpt::Header header =
        bpt::readHeader(data, image.size(), header_bytes);

    Trace trace(header.name);
    // bp_lint: allow(reserve-untrusted): readHeader() above bounded
    // the count by the inflated image's real byte length.
    trace.reserve(static_cast<std::size_t>(header.count));

    const u8 *payload = data + header_bytes;
    std::size_t size = image.size() - header_bytes;
    AlignedVector<BranchRecord> buffer(64 * 1024);
    Addr last_pc = 0;
    u64 remaining = header.count;
    while (remaining > 0) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<u64>(buffer.size(), remaining));
        std::size_t consumed = 0;
        TRACE_SCOPE("ingest", "decode-batch", want, header.count - remaining);
        const std::size_t got = bpt::decodeRecords(
            payload, size, buffer.data(), want, last_pc, consumed);
        if (got < want) {
            fatal("trace: truncated record in '" + path + "'");
        }
        trace.append(buffer.data(), got);
        payload += consumed;
        size -= consumed;
        remaining -= got;
    }
    return trace;
}

std::string
readWholeFile(const std::string &path)
{
    TRACE_SCOPE("ingest", "read-file");
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        fatal("trace: cannot open '" + path + "' for reading");
    }
    return readAllBytes(is);
}

} // namespace

bool
gzSupported()
{
#if BPRED_HAVE_ZLIB
    return true;
#else
    return false;
#endif
}

bool
writeGzFile(const std::string &path, const std::string &bytes)
{
#if BPRED_HAVE_ZLIB
    gzFile gz = gzopen(path.c_str(), "wb");
    if (gz == nullptr) {
        fatal("trace: cannot open '" + path + "' for writing");
    }
    std::size_t at = 0;
    while (at < bytes.size()) {
        const unsigned chunk = static_cast<unsigned>(
            std::min<std::size_t>(bytes.size() - at, 1u << 20));
        if (gzwrite(gz, bytes.data() + at, chunk) !=
            static_cast<int>(chunk)) {
            gzclose(gz);
            fatal("trace: gzip write error in '" + path + "'");
        }
        at += chunk;
    }
    if (gzclose(gz) != Z_OK) {
        fatal("trace: gzip close error in '" + path + "'");
    }
    return true;
#else
    (void)path;
    (void)bytes;
    return false;
#endif
}

bool
isTraceFileName(const std::string &path)
{
    return endsWith(path, ".bpt") || endsWith(path, ".bpt.gz") ||
        endsWith(path, ".txt") || endsWith(path, ".txt.gz") ||
        endsWith(path, ".trace") || endsWith(path, ".trace.gz");
}

Trace
readCbpTextTrace(std::istream &is, const std::string &name)
{
    return parseTextTrace(readAllBytes(is), name, TextDialect::cbp);
}

Trace
loadRealTrace(const std::string &path)
{
    if (!isTraceFileName(path)) {
        fatal("trace: unsupported trace file '" + path + "'");
    }
    const std::string name = traceNameFromPath(path);
    if (endsWith(path, ".bpt.gz")) {
        Trace trace = decodeBptImage(inflateFile(path), path);
        return trace;
    }
    if (endsWith(path, ".bpt")) {
        return loadBinaryTrace(path);
    }
    return parseTextTrace(endsWith(path, ".gz") ? inflateFile(path)
                                                : readWholeFile(path),
                          name);
}

std::size_t
OwnedTraceSource::pull(BranchRecord *out, std::size_t max)
{
    const std::size_t available = trace_.size() - next;
    const std::size_t produced = std::min(max, available);
    const BranchRecord *begin = trace_.records().data() + next;
    std::copy(begin, begin + produced, out);
    next += produced;
    return produced;
}

std::unique_ptr<TraceSource>
openCorpusSource(const std::string &path)
{
    if (endsWith(path, ".bpt")) {
        return openTraceSource(path);
    }
    return std::make_unique<OwnedTraceSource>(loadRealTrace(path));
}

} // namespace bpred
