/**
 * @file
 * Real-trace ingestion adapters: public branch-trace corpora come
 * as CBP/CSE240A-style text ("<pc> <taken>" lines), often gzipped,
 * rather than our BPT1 binary. These adapters normalize any of the
 * supported on-disk forms into the TraceSource world so the corpus
 * runner treats a directory of mixed real and synthetic traces
 * uniformly:
 *
 *   .bpt      BPT1 binary (mmap'd when possible, else read whole)
 *   .bpt.gz   gzipped BPT1 (inflated into an in-memory image, then
 *             the same header validator and decoder as .bpt)
 *   .txt / .trace   text: either our "C|U <hexpc> T|N" format or the
 *             CBP-style "<pc> <dir>" format, auto-detected
 *   .txt.gz / .trace.gz   gzipped text, same auto-detection
 *
 * gz support depends on zlib (BPRED_HAVE_ZLIB, probed by CMake);
 * without it the gz paths fail with a clear fatal() instead of a
 * silent misparse.
 */

#pragma once

#include <memory>
#include <string>

#include "trace/stream.hh"

namespace bpred
{

/** True when this build can inflate .gz traces (zlib present). */
bool gzSupported();

/**
 * Deflate @p bytes to @p path as a gzip file — how tests and the
 * CI corpus generator produce .gz fixtures without shelling out.
 *
 * @return false when the build lacks zlib (nothing written).
 * @throws FatalError on I/O errors.
 */
bool writeGzFile(const std::string &path, const std::string &bytes);

/** True when loadRealTrace() recognizes @p path's extension. */
bool isTraceFileName(const std::string &path);

/**
 * Parse CBP/CSE240A-style text from a stream: one branch per line,
 * "<pc> <dir>" where <pc> is decimal or 0x-prefixed hex and <dir>
 * is 0/1 or T/N (case-insensitive); '#' starts a comment. Every
 * record is a conditional branch — the format carries no kind bit.
 * Reads the whole stream, then runs parseTextTrace() on it.
 *
 * @throws FatalError on a malformed line.
 */
Trace readCbpTextTrace(std::istream &is, const std::string &name);

/**
 * Load any supported trace file into memory, dispatching on the
 * extension and auto-detecting the text dialect.
 *
 * @throws FatalError on unsupported extensions, malformed content,
 *         or a .gz file in a build without zlib.
 */
Trace loadRealTrace(const std::string &path);

/**
 * Open @p path for streaming, dispatching on the extension: a .bpt
 * is imaged by MappedTrace::open (mmap'd, or read whole when it
 * cannot be mapped), a .bpt.gz is inflated and imaged in memory,
 * and text is parsed whole into a MemoryTraceSource. Every BPT1
 * form is decoded by the same MmapTraceSource.
 *
 * @param ingest Out: the path the bytes took, as the corpus report
 *        names it: "mmap", "stream" (a .bpt read whole) or "memory"
 *        (inflated or parsed in memory).
 *
 * @throws FatalError on unsupported or malformed files.
 */
std::unique_ptr<TraceSource> openCorpusSource(const std::string &path,
                                              std::string &ingest);

/** openCorpusSource() without the ingest label. */
std::unique_ptr<TraceSource> openCorpusSource(const std::string &path);

} // namespace bpred
