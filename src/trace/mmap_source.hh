/**
 * @file
 * BPT1 trace images and the one cursor that decodes them.
 *
 * Every binary ingest path ends here. A MappedTrace holds the bytes
 * of one whole BPT1 trace, got one of three ways: mmap'd from a
 * file, read whole when the file cannot be mapped (a FIFO, an empty
 * file, a non-POSIX build), or handed over already in memory (an
 * inflated .bpt.gz, a drained istream). Its header is validated
 * once, against the true byte length, when the image is made. The
 * image is immutable and shareable: a whole SweepRunner pool or gang
 * replays one file through shared_ptr views instead of N private
 * Trace copies. MmapTraceSource is the cursor: it decodes straight
 * out of the image into the caller's pull() buffer with
 * bpt::decodeRecords, the only BPT1 record loop.
 */

#pragma once

#include <memory>
#include <string>

#include "trace/stream.hh"

namespace bpred
{

/** True when this build can mmap trace files at all. */
bool mmapSupported();

/**
 * One immutable, header-validated BPT1 image: an mmap'd file or an
 * owned byte string.
 *
 * Any number of threads may decode from the same image concurrently
 * (each MmapTraceSource keeps its own cursor). Mapped pages are
 * prefaulted where the platform allows and advised for sequential
 * access (madvise SEQUENTIAL + WILLNEED).
 */
class MappedTrace
{
  public:
    /** Where an image's bytes came from. */
    enum class Origin
    {
        /** mmap'd from a regular file. */
        mapped,
        /** Read whole from a file that could not be mapped. */
        read,
        /** Handed over in memory (fromBytes()). */
        memory,
    };

    MappedTrace(const MappedTrace &) = delete;
    MappedTrace &operator=(const MappedTrace &) = delete;
    ~MappedTrace();

    /**
     * Image the trace file at @p path: mmap it, or read it whole
     * when it cannot be mapped (not a regular file, empty, no mmap
     * in this build, or a failed syscall).
     *
     * @throws FatalError when the file cannot be opened, or when its
     *         header is malformed: bad magic, unreasonable name, or
     *         a record count the byte length cannot hold. The byte
     *         length is captured once and every later access is
     *         bounded by it, so a well-formed image can never fault
     *         past a mapping (SIGBUS) on a file that is not being
     *         truncated underneath us.
     */
    static std::shared_ptr<const MappedTrace>
    open(const std::string &path);

    /**
     * Image @p bytes, a whole BPT1 trace already in memory.
     *
     * @throws FatalError when the header is malformed.
     */
    static std::shared_ptr<const MappedTrace> fromBytes(std::string bytes);

    /** Benchmark name from the validated header. */
    const std::string &name() const { return name_; }

    /** Validated record count. */
    u64 count() const { return count_; }

    /** First payload byte (record data, after the header). */
    const u8 *payload() const { return data_ + payloadOffset; }

    /** Payload length in bytes. */
    std::size_t payloadBytes() const { return bytes_ - payloadOffset; }

    /** How the bytes were obtained. */
    Origin origin() const { return origin_; }

  private:
    MappedTrace() = default;

    /** Own @p bytes and validate the header over them. */
    static std::shared_ptr<const MappedTrace> adopt(std::string bytes,
                                                    Origin origin);

    /** Validate the header of the bytes already in place. */
    void parseHeader();

    const u8 *data_ = nullptr;
    std::size_t bytes_ = 0;
    Origin origin_ = Origin::memory;
    /** The bytes, unless origin_ is mapped. */
    std::string owned_;
    std::size_t payloadOffset = 0;
    std::string name_;
    u64 count_ = 0;
};

/**
 * The TraceSource over a MappedTrace: decodes records directly from
 * the shared image into the caller's pull() buffer. Cheap to
 * construct (no allocation beyond the image handle), so gang members
 * and sweep workers each take their own source over one image.
 */
class MmapTraceSource : public TraceSource
{
  public:
    /** Stream from an already-made image (shared, never copied). */
    explicit MmapTraceSource(std::shared_ptr<const MappedTrace> image);

    /**
     * Image @p path (MappedTrace::open) and stream from it.
     *
     * @throws FatalError when the file cannot be opened or the
     *         header is malformed.
     */
    explicit MmapTraceSource(const std::string &path);

    const std::string &name() const override;

    /** @throws FatalError on a corrupt or truncated record. */
    std::size_t pull(BranchRecord *out, std::size_t max) override;

    /** Always validated: the image checked the count when made. */
    u64 sizeHint() const override { return remaining_; }

    /** Records not yet pulled. */
    u64 remaining() const { return remaining_; }

  private:
    std::shared_ptr<const MappedTrace> image_;
    std::size_t at = 0;
    u64 remaining_ = 0;
    Addr lastPc = 0;
};

/**
 * Open the BPT1 file at @p path for streaming: an MmapTraceSource
 * over MappedTrace::open(), so the file is mmap'd when it can be and
 * read whole when it cannot. Malformed content is fatal either way.
 */
std::unique_ptr<TraceSource> openTraceSource(const std::string &path);

} // namespace bpred
