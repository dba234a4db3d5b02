#include "trace/mmap_source.hh"

#include <algorithm>
#include <fstream>

#include "support/logging.hh"
#include "support/tracing.hh"
#include "trace/bpt_format.hh"
#include "trace/trace_io.hh"

#if defined(__unix__) || defined(__APPLE__)
#define BPRED_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define BPRED_HAVE_MMAP 0
#endif

namespace bpred
{

bool
mmapSupported()
{
    return BPRED_HAVE_MMAP != 0;
}

namespace
{

/**
 * Map @p path read-only; nullptr when it is not a non-empty regular
 * file or any syscall fails. Anything else (a FIFO above all) is
 * never opened here, so the whole-file read that follows is its
 * only reader.
 */
const u8 *
mapFile(const std::string &path, std::size_t &bytes)
{
#if BPRED_HAVE_MMAP
    TRACE_SCOPE("ingest", "mmap-map");
    struct stat st = {};
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode) ||
        st.st_size <= 0) {
        return nullptr;
    }
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        return nullptr;
    }
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode) ||
        st.st_size <= 0) {
        ::close(fd);
        return nullptr;
    }
    const std::size_t size = static_cast<std::size_t>(st.st_size);
    int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    // Prefault at map time (Linux): the decode loop then never
    // stalls on soft page faults mid-batch.
    flags |= MAP_POPULATE;
#endif
    void *base = ::mmap(nullptr, size, PROT_READ, flags, fd, 0);
    // The mapping outlives the descriptor; POSIX keeps the pages
    // valid after close.
    ::close(fd);
    if (base == MAP_FAILED) {
        return nullptr;
    }
    // Advisory only: decode order is strictly sequential, and the
    // kernel may start readahead now. Failure changes nothing.
    ::madvise(base, size, MADV_SEQUENTIAL);
    ::madvise(base, size, MADV_WILLNEED);
    bytes = size;
    return static_cast<const u8 *>(base);
#else
    (void)path;
    (void)bytes;
    return nullptr;
#endif
}

} // namespace

MappedTrace::~MappedTrace()
{
#if BPRED_HAVE_MMAP
    if (origin_ == Origin::mapped) {
        ::munmap(const_cast<u8 *>(data_), bytes_);
    }
#endif
}

void
MappedTrace::parseHeader()
{
    const bpt::Header header =
        bpt::readHeader(data_, bytes_, payloadOffset);
    name_ = header.name;
    count_ = header.count;
}

std::shared_ptr<const MappedTrace>
MappedTrace::adopt(std::string bytes, Origin origin)
{
    // The constructor is private, which rules out make_shared.
    // bp_lint: allow(banned-identifier): private-ctor make_shared
    auto image = std::shared_ptr<MappedTrace>(new MappedTrace());
    image->owned_ = std::move(bytes);
    image->data_ = reinterpret_cast<const u8 *>(image->owned_.data());
    image->bytes_ = image->owned_.size();
    image->origin_ = origin;
    image->parseHeader();
    return image;
}

std::shared_ptr<const MappedTrace>
MappedTrace::fromBytes(std::string bytes)
{
    return adopt(std::move(bytes), Origin::memory);
}

std::shared_ptr<const MappedTrace>
MappedTrace::open(const std::string &path)
{
    std::size_t bytes = 0;
    if (const u8 *data = mapFile(path, bytes)) {
        // Own the pages before parsing, so a fatal header error
        // still unmaps on unwind.
        // bp_lint: allow(banned-identifier): private-ctor make_shared
        auto image = std::shared_ptr<MappedTrace>(new MappedTrace());
        image->data_ = data;
        image->bytes_ = bytes;
        image->origin_ = Origin::mapped;
        image->parseHeader();
        return image;
    }
    TRACE_SCOPE("ingest", "read-file");
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        fatal("trace: cannot open '" + path + "' for reading");
    }
    return adopt(readAllBytes(is), Origin::read);
}

MmapTraceSource::MmapTraceSource(
    std::shared_ptr<const MappedTrace> image)
    : image_(std::move(image))
{
    if (!image_) {
        fatal("trace: MmapTraceSource given a null image");
    }
    remaining_ = image_->count();
}

MmapTraceSource::MmapTraceSource(const std::string &path)
    : MmapTraceSource(MappedTrace::open(path))
{
}

const std::string &
MmapTraceSource::name() const
{
    return image_->name();
}

std::size_t
MmapTraceSource::pull(BranchRecord *out, std::size_t max)
{
    const std::size_t produced = static_cast<std::size_t>(
        std::min<u64>(max, remaining_));
    if (produced == 0) {
        return 0;
    }
    TRACE_SCOPE("ingest", "decode-batch", produced, at);
    std::size_t consumed = 0;
    const std::size_t done = bpt::decodeRecords(
        image_->payload() + at, image_->payloadBytes() - at, out,
        produced, lastPc, consumed);
    if (done < produced) {
        // The validated header promised more records than the
        // payload actually encodes.
        fatal("trace: truncated record");
    }
    at += consumed;
    remaining_ -= produced;
    return produced;
}

std::unique_ptr<TraceSource>
openTraceSource(const std::string &path)
{
    return std::make_unique<MmapTraceSource>(path);
}

} // namespace bpred
