#include "trace/adapters.hh"

#include <algorithm>
#include <fstream>

#include "support/logging.hh"
#include "support/tracing.hh"
#include "trace/mmap_source.hh"
#include "trace/text_source.hh"
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

/** .bpt or .bpt.gz: BPT1 bytes, decoded through an image. */
bool
isBinaryTraceName(const std::string &path)
{
    return endsWith(path, ".bpt") || endsWith(path, ".bpt.gz");
}

/** A .txt/.trace file's bytes, inflated when gzipped. */
std::string
readTextFile(const std::string &path)
{
    if (!isTraceFileName(path)) {
        fatal("trace: unsupported trace file '" + path + "'");
    }
    return endsWith(path, ".gz") ? inflateFile(path)
                                 : readWholeFile(path);
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
    if (isBinaryTraceName(path)) {
        return drainSource(*openCorpusSource(path));
    }
    return parseTextTrace(readTextFile(path), traceNameFromPath(path));
}

std::unique_ptr<TraceSource>
openCorpusSource(const std::string &path, std::string &ingest)
{
    if (endsWith(path, ".bpt")) {
        auto image = MappedTrace::open(path);
        ingest = image->origin() == MappedTrace::Origin::mapped
            ? "mmap"
            : "stream";
        return std::make_unique<MmapTraceSource>(std::move(image));
    }
    ingest = "memory";
    if (isBinaryTraceName(path)) {
        return std::make_unique<MmapTraceSource>(
            MappedTrace::fromBytes(inflateFile(path)));
    }
    return std::make_unique<TextTraceSource>(readTextFile(path),
                                             traceNameFromPath(path));
}

std::unique_ptr<TraceSource>
openCorpusSource(const std::string &path)
{
    std::string ingest;
    return openCorpusSource(path, ingest);
}

} // namespace bpred
