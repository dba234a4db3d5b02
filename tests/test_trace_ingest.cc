/**
 * @file
 * Ingest pipeline tests: the bulk BPT1 decoder against the checked
 * per-record decoder, every byte route into a BPT1 image (mmap, the
 * whole-file read, gz) against the in-memory trace (per-scheme byte
 * identity), corruption rejection, shared images across threads,
 * the real-trace adapters, and corpus runner determinism across
 * thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "sim/corpus.hh"
#include "sim/factory.hh"
#include "sim/session.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/serialize.hh"
#include "trace/adapters.hh"
#include "trace/bpt_format.hh"
#include "trace/mmap_source.hh"
#include "trace/trace_io.hh"
#include "workloads/presets.hh"

namespace bpred
{
namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory, removed on destruction. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path_(fs::temp_directory_path() /
                ("bpred_ingest_" + tag + "_" +
                 std::to_string(::getpid())))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }

    ~ScratchDir() { fs::remove_all(path_); }

    std::string
    file(const std::string &name) const
    {
        return (path_ / name).string();
    }

    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os.is_open()) << path;
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

/** Serialize @p trace to BPT1 bytes in memory. */
std::string
bptBytes(const Trace &trace)
{
    std::ostringstream os;
    writeBinaryTrace(os, trace);
    return os.str();
}

/** A trace whose deltas cover every varint length, 1 to 10 bytes. */
Trace
makeEdgeTrace()
{
    Trace trace("edges");
    // Small forward steps (1-byte varints).
    Addr pc = 0x40'0000;
    for (int i = 0; i < 40; ++i) {
        pc += 2;
        trace.appendConditional(pc, i % 3 == 0);
    }
    // Two-byte and longer deltas, both signs.
    u64 magnitude = 0x40;
    for (int i = 0; i < 60; ++i) {
        pc += (i % 2 == 0) ? magnitude : (0 - magnitude);
        trace.appendConditional(pc, i % 2 == 0);
        magnitude = (magnitude << 1) | 1;
    }
    // Extremes: top of the address space, i64-overflowing swings,
    // and the all-ones PC (10-byte zig-zag varints).
    trace.appendUnconditional(0);
    trace.appendConditional(~u64(0), true);
    trace.appendConditional(u64(1) << 63, false);
    trace.appendConditional(1, true);
    trace.appendUnconditional(u64(0x7fffffffffffffffull));
    trace.appendConditional(0x40'0000, false);
    return trace;
}

/** A medium random trace (pc locality like the io tests). */
Trace
makeSampleTrace(std::size_t records, u64 seed)
{
    Trace trace("sample");
    Rng rng(seed);
    Addr pc = 0x40'0000;
    for (std::size_t i = 0; i < records; ++i) {
        pc += 4 * (1 + rng.uniformInt(100));
        if (rng.chance(0.2)) {
            trace.appendUnconditional(pc);
        } else {
            trace.appendConditional(pc, rng.chance(0.6));
        }
        if (rng.chance(0.2)) {
            pc -= 4 * rng.uniformInt(200);
        }
    }
    return trace;
}

/**
 * The oracle: the header reader, then the checked per-record
 * decoder one record at a time.
 */
std::vector<BranchRecord>
scalarDecode(const std::string &bytes)
{
    const u8 *data = reinterpret_cast<const u8 *>(bytes.data());
    std::size_t at = 0;
    const bpt::Header header =
        bpt::readHeader(data, bytes.size(), at);
    std::vector<BranchRecord> out(
        static_cast<std::size_t>(header.count));
    Addr last_pc = 0;
    for (BranchRecord &record : out) {
        const std::size_t step = bpt::readRecord(
            bytes.data() + at, bytes.size() - at, record, last_pc);
        EXPECT_NE(step, 0u) << "truncated oracle input";
        at += step;
    }
    return out;
}

/** Decode the payload of @p bytes with the bulk decoder. */
std::vector<BranchRecord>
bulkDecode(const std::string &bytes, std::size_t chunk)
{
    const u8 *data = reinterpret_cast<const u8 *>(bytes.data());
    std::size_t header_bytes = 0;
    const bpt::Header header =
        bpt::readHeader(data, bytes.size(), header_bytes);

    std::vector<BranchRecord> out(
        static_cast<std::size_t>(header.count));
    std::size_t done = 0;
    std::size_t at = header_bytes;
    Addr last_pc = 0;
    while (done < out.size()) {
        std::size_t consumed = 0;
        const std::size_t want =
            std::min(chunk, out.size() - done);
        const std::size_t got = bpt::decodeRecords(
            data + at, bytes.size() - at, out.data() + done, want,
            last_pc, consumed);
        if (got == 0) {
            break;
        }
        at += consumed;
        done += got;
    }
    EXPECT_EQ(done, out.size());
    return out;
}

TEST(BulkDecode, MatchesReferenceOnEdgeDeltas)
{
    const Trace trace = makeEdgeTrace();
    const std::string bytes = bptBytes(trace);

    // The checked per-record decoder is ground truth.
    const std::vector<BranchRecord> reference = scalarDecode(bytes);
    ASSERT_EQ(reference, trace.records());

    // Chunk sizes straddle the quad width and the sub-batch/tail
    // boundary logic.
    for (const std::size_t chunk : {std::size_t(1), std::size_t(2),
                                    std::size_t(3), std::size_t(5),
                                    std::size_t(64),
                                    trace.size()}) {
        const std::vector<BranchRecord> bulk =
            bulkDecode(bytes, chunk);
        ASSERT_EQ(bulk.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            ASSERT_EQ(bulk[i], reference[i])
                << "chunk " << chunk << " record " << i;
        }
    }
}

TEST(BulkDecode, MatchesReferenceOnRandomTrace)
{
    const std::string bytes = bptBytes(makeSampleTrace(5000, 7));
    const std::vector<BranchRecord> reference = scalarDecode(bytes);
    const std::vector<BranchRecord> bulk = bulkDecode(bytes, 256);
    ASSERT_EQ(bulk.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(bulk[i], reference[i]) << "record " << i;
    }
}

/** Tallies + snapshot bytes for one spec over one source. */
struct Fingerprint
{
    u64 conditionals = 0;
    u64 mispredicts = 0;
    std::string snapshot;
};

Fingerprint
fingerprint(const std::string &spec, TraceSource &source)
{
    const std::unique_ptr<Predictor> predictor = makePredictor(spec);
    const SimResult result = simulateSource(*predictor, source);
    Fingerprint print;
    print.conditionals = result.conditionals;
    print.mispredicts = result.mispredicts;
    if (predictor->supportsSnapshot()) {
        ByteWriter out(print.snapshot);
        predictor->saveState(out);
    }
    return print;
}

/**
 * A FIFO at @p path serving @p bytes to one reader, so a file that
 * cannot be mapped takes the whole-file read. The writer blocks in
 * open until the reader arrives; the destructor joins it, so the
 * FIFO must be read exactly once.
 */
class FifoWriter
{
  public:
    FifoWriter(const std::string &path, std::string bytes)
    {
        if (::mkfifo(path.c_str(), 0600) != 0) {
            ADD_FAILURE() << "mkfifo " << path;
            return;
        }
        writer = std::thread([path, bytes = std::move(bytes)]() {
            std::ofstream os(path, std::ios::binary);
            os.write(bytes.data(),
                     static_cast<std::streamsize>(bytes.size()));
        });
    }

    FifoWriter(const FifoWriter &) = delete;
    FifoWriter &operator=(const FifoWriter &) = delete;

    ~FifoWriter()
    {
        if (writer.joinable()) {
            writer.join();
        }
    }

  private:
    std::thread writer;
};

TEST(MmapSource, ByteIdenticalToMemoryForEveryScheme)
{
    if (!mmapSupported()) {
        GTEST_SKIP() << "no mmap or FIFOs on this platform";
    }
    ScratchDir dir("schemes");
    const Trace trace = makeIbsTrace("real_gcc", 0.01);
    const std::string bytes = bptBytes(trace);
    const std::string path = dir.file("trace.bpt");
    writeFile(path, bytes);
    const std::string gz_path = dir.file("trace.bpt.gz");
    const bool gz = writeGzFile(gz_path, bytes);

    // One image per file route, shared by every scheme below.
    const std::shared_ptr<const MappedTrace> mapped =
        MappedTrace::open(path);
    ASSERT_EQ(mapped->origin(), MappedTrace::Origin::mapped);
    std::shared_ptr<const MappedTrace> read;
    {
        const std::string fifo = dir.file("fifo.bpt");
        FifoWriter writer(fifo, bytes);
        read = MappedTrace::open(fifo);
    }
    ASSERT_EQ(read->origin(), MappedTrace::Origin::read);

    for (const SchemeInfo &scheme : listSchemes()) {
        MemoryTraceSource memory(trace);
        const Fingerprint want = fingerprint(scheme.example, memory);
        EXPECT_GT(want.conditionals, 0u) << scheme.example;

        std::vector<std::pair<const char *, Fingerprint>> routes;
        MmapTraceSource via_mmap(mapped);
        routes.emplace_back("mmap", fingerprint(scheme.example, via_mmap));
        MmapTraceSource via_read(read);
        routes.emplace_back("read", fingerprint(scheme.example, via_read));
        if (gz) {
            std::string ingest;
            const std::unique_ptr<TraceSource> via_gz =
                openCorpusSource(gz_path, ingest);
            EXPECT_EQ(ingest, "memory");
            routes.emplace_back("gz", fingerprint(scheme.example, *via_gz));
        }
        for (const auto &[route, got] : routes) {
            EXPECT_EQ(want.conditionals, got.conditionals)
                << scheme.example << " via " << route;
            EXPECT_EQ(want.mispredicts, got.mispredicts)
                << scheme.example << " via " << route;
            EXPECT_EQ(want.snapshot, got.snapshot)
                << scheme.example << " via " << route;
        }
    }
}

TEST(MmapSource, UnmappableFilesAreReadWhole)
{
    if (!mmapSupported()) {
        GTEST_SKIP() << "no mmap or FIFOs on this platform";
    }
    ScratchDir dir("unmappable");
    const Trace trace = makeSampleTrace(3000, 13);

    // A FIFO cannot be mapped: it is read to its end instead, and
    // the corpus labels it "stream".
    const std::string fifo = dir.file("pipe.bpt");
    std::string ingest;
    Trace drained;
    {
        FifoWriter writer(fifo, bptBytes(trace));
        drained = drainSource(*openCorpusSource(fifo, ingest));
    }
    EXPECT_EQ(ingest, "stream");
    EXPECT_EQ(drained.name(), trace.name());
    EXPECT_EQ(drained.records(), trace.records());

    // An empty file cannot be mapped either; read whole, it has no
    // magic.
    const std::string empty = dir.file("empty.bpt");
    writeFile(empty, "");
    EXPECT_THROW(MappedTrace::open(empty), FatalError);
}

TEST(MmapSource, SharedMappingAcrossThreads)
{
    if (!mmapSupported()) {
        GTEST_SKIP() << "no mmap on this platform";
    }
    ScratchDir dir("shared");
    const std::string path = dir.file("trace.bpt");
    const Trace trace = makeSampleTrace(20'000, 11);
    saveBinaryTrace(path, trace);

    const std::shared_ptr<const MappedTrace> mapped =
        MappedTrace::open(path);
    ASSERT_EQ(mapped->origin(), MappedTrace::Origin::mapped);
    EXPECT_EQ(mapped->count(), trace.size());

    // Four workers drain four independent sources over ONE mapping;
    // each must see exactly the whole trace.
    std::vector<u64> sums(4, 0);
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
        workers.emplace_back([&, w]() {
            MmapTraceSource source(mapped);
            std::vector<BranchRecord> block(1024);
            u64 sum = 0;
            while (const std::size_t n =
                       source.pull(block.data(), block.size())) {
                for (std::size_t i = 0; i < n; ++i) {
                    sum += block[i].pc + (block[i].taken ? 1 : 0);
                }
            }
            sums[static_cast<std::size_t>(w)] = sum;
        });
    }
    for (std::thread &worker : workers) {
        worker.join();
    }

    u64 expected = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        expected += trace[i].pc + (trace[i].taken ? 1 : 0);
    }
    for (const u64 sum : sums) {
        EXPECT_EQ(sum, expected);
    }
}

TEST(MmapSource, RejectsCorruptHeaders)
{
    if (!mmapSupported()) {
        GTEST_SKIP() << "no mmap on this platform";
    }
    ScratchDir dir("corrupt");

    // Bad magic.
    const std::string bad_magic = dir.file("magic.bpt");
    writeFile(bad_magic, "NOPE____definitely not a trace");
    EXPECT_THROW(MappedTrace::open(bad_magic), FatalError);

    // Unreasonable name length.
    {
        std::ostringstream os;
        os.write("BPT1", 4);
        bpt::writeVarint(os, u64(1) << 40);
        const std::string path = dir.file("name.bpt");
        writeFile(path, os.str());
        EXPECT_THROW(MappedTrace::open(path), FatalError);
    }

    // Header declares far more records than the payload can hold:
    // the shared validator rejects it before any decode starts.
    {
        std::ostringstream os;
        bpt::writeHeader(os, "lies", 1'000'000);
        os.put('\0');
        os.put('\0');
        const std::string path = dir.file("count.bpt");
        writeFile(path, os.str());
        EXPECT_THROW(MappedTrace::open(path), FatalError);
    }

    // A missing file can be neither mapped nor read.
    EXPECT_THROW(MappedTrace::open(dir.file("absent.bpt")), FatalError);
}

/** Map @p payload under a valid header and drain it. */
void
drainPayload(ScratchDir &dir, const std::string &tag, u64 count,
             const std::string &payload)
{
    std::ostringstream os;
    bpt::writeHeader(os, "t", count);
    os << payload;
    const std::string path = dir.file(tag + ".bpt");
    writeFile(path, os.str());
    MmapTraceSource source(path);
    std::vector<BranchRecord> block(256);
    while (source.pull(block.data(), block.size()) != 0) {
    }
}

TEST(MmapSource, RejectsCorruptRecords)
{
    if (!mmapSupported()) {
        GTEST_SKIP() << "no mmap on this platform";
    }
    ScratchDir dir("records");

    // Regular records to pad the corrupt one into the bulk decode
    // fast region (>= maxRecordBytes per pending record).
    std::ostringstream good;
    Addr pc = 0;
    for (int i = 0; i < 40; ++i) {
        bpt::writeRecord(good, {u64(0x1000 + 4 * i), true, true}, pc);
    }

    // Bad flag bits, leading and mid-stream.
    {
        std::string payload = good.str();
        payload[0] = '\x04';
        EXPECT_THROW(drainPayload(dir, "flags0", 40, payload),
                     FatalError);
    }

    // Varint overflow: continuation bit set through byte 10. Fatal
    // in the fast region (mid-stream) and in the checked tail.
    std::string overlong(1, '\0');
    overlong.append(10, '\x80');
    overlong.push_back('\x00');
    {
        std::string payload = overlong + good.str();
        EXPECT_THROW(drainPayload(dir, "over_fast", 41, payload),
                     FatalError);
    }
    {
        std::string payload = good.str() + overlong;
        EXPECT_THROW(drainPayload(dir, "over_tail", 41, payload),
                     FatalError);
    }

    // Truncated mid-record: drop the final byte.
    {
        std::string payload = good.str();
        payload.pop_back();
        EXPECT_THROW(drainPayload(dir, "trunc", 40, payload),
                     FatalError);
    }
}

TEST(Adapters, CbpTextParses)
{
    std::istringstream is("# comment\n"
                          "0x4000 T\n"
                          "0x4004 n\n"
                          "16392 1\n"
                          "16400 0\n");
    const Trace trace = readCbpTextTrace(is, "cbp");
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace[0].pc, 0x4000u);
    EXPECT_TRUE(trace[0].taken);
    EXPECT_TRUE(trace[0].conditional);
    EXPECT_FALSE(trace[1].taken);
    EXPECT_EQ(trace[2].pc, 16392u);
    EXPECT_TRUE(trace[2].taken);
    EXPECT_FALSE(trace[3].taken);

    std::istringstream junk("0x4000 T\nnot a line\n");
    EXPECT_THROW(readCbpTextTrace(junk, "junk"), FatalError);
}

/** Expect @p bad_line, as line 2 of a CBP trace, to fail on line 2. */
void
expectCbpRejectedOnLine2(const std::string &bad_line)
{
    std::istringstream is("0x4000 1\n" + bad_line + "\n");
    try {
        (void)readCbpTextTrace(is, "cbp");
        FAIL() << "accepted '" << bad_line << "'";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("on line 2"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Adapters, CbpTextRejectsNegativePc)
{
    // stoull used to wrap "-5" to 0xfffffffffffffffb.
    expectCbpRejectedOnLine2("-5 1");
}

TEST(Adapters, CbpTextRejectsPlusSignedPc)
{
    // stoull used to accept "+5" as 5.
    expectCbpRejectedOnLine2("+5 1");
}

/**
 * Expect a native .txt file whose line 2 is @p bad_line to fail on
 * line 2 through loadRealTrace (read, dialect detection, parse).
 */
void
expectTxtFileRejectedOnLine2(const std::string &bad_line)
{
    ScratchDir dir("txt_reject");
    const std::string path = dir.file("bad.txt");
    writeFile(path, "C 4000 T\n" + bad_line + "\n");
    try {
        (void)loadRealTrace(path);
        FAIL() << "accepted '" << bad_line << "'";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("on line 2"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Adapters, TxtFileRejectsSignedPc)
{
    expectTxtFileRejectedOnLine2("C -40 T");
}

TEST(Adapters, TxtFileRejectsPcWithTrailingJunk)
{
    expectTxtFileRejectedOnLine2("C 40zz T");
}

TEST(Adapters, TxtFileRejectsDirectionWithTrailingJunk)
{
    expectTxtFileRejectedOnLine2("C 40 Tx");
}

TEST(Adapters, GzRoundTrip)
{
    if (!gzSupported()) {
        GTEST_SKIP() << "built without zlib";
    }
    ScratchDir dir("gz");
    const Trace original = makeSampleTrace(3000, 5);

    // .bpt.gz: inflate, then an image like any .bpt.
    const std::string gz_bpt = dir.file("trace.bpt.gz");
    ASSERT_TRUE(writeGzFile(gz_bpt, bptBytes(original)));
    const Trace inflated = loadRealTrace(gz_bpt);
    ASSERT_EQ(inflated.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        ASSERT_EQ(inflated[i], original[i]) << "record " << i;
    }

    // .txt.gz in CBP dialect: conditionals only survive the format.
    std::ostringstream text;
    for (std::size_t i = 0; i < original.size(); ++i) {
        if (!original[i].conditional) {
            continue;
        }
        text << "0x" << std::hex << original[i].pc << std::dec
             << (original[i].taken ? " 1" : " 0") << "\n";
    }
    const std::string gz_txt = dir.file("trace.txt.gz");
    ASSERT_TRUE(writeGzFile(gz_txt, text.str()));
    const Trace parsed = loadRealTrace(gz_txt);
    std::size_t at = 0;
    for (std::size_t i = 0; i < original.size(); ++i) {
        if (!original[i].conditional) {
            continue;
        }
        ASSERT_LT(at, parsed.size());
        EXPECT_EQ(parsed[at].pc, original[i].pc);
        EXPECT_EQ(parsed[at].taken, original[i].taken);
        ++at;
    }
    EXPECT_EQ(at, parsed.size());

    // Corrupt gz payload must be a clean fatal, not a misparse.
    const std::string broken = dir.file("broken.bpt.gz");
    writeFile(broken, "\x1f\x8b\x08 definitely not deflate");
    EXPECT_THROW(loadRealTrace(broken), FatalError);
}

TEST(Corpus, ReportIsIdenticalAcrossThreadCounts)
{
    ScratchDir dir("corpus");
    saveBinaryTrace(dir.file("a.bpt"), makeSampleTrace(8000, 21));
    saveBinaryTrace(dir.file("b.bpt"), makeSampleTrace(6000, 22));
    {
        std::ofstream os(dir.file("c.txt"));
        const Trace text_trace = makeSampleTrace(2000, 23);
        writeTextTrace(os, text_trace);
    }

    CorpusOptions options;
    options.specs = {"gshare:10:8", "bimodal:10"};
    options.topSites = 4;

    options.threads = 1;
    const CorpusReport serial = runCorpus(dir.str(), options);
    options.threads = 4;
    const CorpusReport parallel = runCorpus(dir.str(), options);

    ASSERT_EQ(serial.files.size(), 3u);
    EXPECT_EQ(serial.toJson().dump(), parallel.toJson().dump());

    // Sorted-name order and per-file sanity.
    EXPECT_EQ(serial.files[0].file, "a.bpt");
    EXPECT_EQ(serial.files[1].file, "b.bpt");
    EXPECT_EQ(serial.files[2].file, "c.txt");
    for (const CorpusFileResult &file : serial.files) {
        EXPECT_TRUE(file.error.empty()) << file.error;
        EXPECT_GT(file.records, 0u);
        ASSERT_EQ(file.results.size(), 2u);
        EXPECT_EQ(file.results[0].conditionals,
                  file.results[1].conditionals);
    }
    EXPECT_EQ(serial.files[0].ingest,
              mmapSupported() ? "mmap" : "stream");
}

/**
 * The corpus classification, recomputed from first principles: a
 * split predict()/update() loop of @p spec over @p trace, counting
 * every conditional per site (warmup included, flushes applied),
 * classified and ranked by the CorpusOptions rules.
 */
CorpusClassification
referenceClassification(const std::string &spec, const Trace &trace,
                        const CorpusOptions &options)
{
    struct Cell
    {
        u64 branches = 0;
        u64 mispredicts = 0;
    };
    std::map<Addr, Cell> cells;
    auto predictor = makePredictor(spec);
    u64 since_flush = 0;
    for (const BranchRecord &record : trace) {
        if (!record.conditional) {
            predictor->notifyUnconditional(record.pc);
            continue;
        }
        const bool prediction = predictor->predict(record.pc);
        predictor->update(record.pc, record.taken);
        Cell &cell = cells[record.pc];
        ++cell.branches;
        cell.mispredicts += prediction != record.taken ? 1 : 0;
        if (++since_flush == options.sim.flushInterval) {
            predictor->reset();
            since_flush = 0;
        }
    }

    CorpusClassification classes;
    std::vector<SitePredictability> all;
    for (const auto &[pc, cell] : cells) {
        SitePredictability site;
        site.pc = pc;
        site.branches = cell.branches;
        site.mispredicts = cell.mispredicts;
        const double ratio = double(cell.mispredicts) /
            double(cell.branches);
        classes.totalMispredicts += cell.mispredicts;
        if (cell.branches < options.classifyMinBranches) {
            site.klass = Predictability::Cold;
            ++classes.coldSites;
        } else if (ratio <= options.easyThreshold) {
            site.klass = Predictability::Easy;
            ++classes.easySites;
        } else if (ratio > options.hardThreshold) {
            site.klass = Predictability::Hard;
            ++classes.hardSites;
            classes.hardMispredicts += cell.mispredicts;
        } else {
            site.klass = Predictability::Medium;
            ++classes.mediumSites;
        }
        all.push_back(site);
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const SitePredictability &a,
                        const SitePredictability &b) {
                         return a.mispredicts > b.mispredicts;
                     });
    all.resize(std::min(all.size(), options.topSites));
    classes.hardest = all;
    return classes;
}

TEST(Corpus, ClassificationMatchesSplitReference)
{
    // Pins the reference member's site tallies: warmup branches are
    // counted, flushes apply, and every class count, the hard-site
    // mispredicts and the hardest list equal a split-loop
    // recomputation — across .bpt, .bpt.gz and .txt ingest.
    ScratchDir dir("classify");
    std::map<std::string, Trace> traces;
    traces.emplace("groff.bpt", makeIbsTrace("groff", 0.01));
    traces.emplace("gcc.txt", makeIbsTrace("real_gcc", 0.005));
    saveBinaryTrace(dir.file("groff.bpt"), traces.at("groff.bpt"));
    {
        std::ofstream os(dir.file("gcc.txt"));
        writeTextTrace(os, traces.at("gcc.txt"));
    }
    if (gzSupported()) {
        traces.emplace("nroff.bpt.gz", makeIbsTrace("nroff", 0.005));
        ASSERT_TRUE(writeGzFile(dir.file("nroff.bpt.gz"),
                                bptBytes(traces.at("nroff.bpt.gz"))));
    }

    CorpusOptions options;
    options.specs = {"gshare:10:8", "bimodal:10"};
    options.topSites = 12;
    options.threads = 2;
    options.sim.warmupBranches = 1500;
    options.sim.flushInterval = 4000;
    const CorpusReport report = runCorpus(dir.str(), options);

    ASSERT_EQ(report.files.size(), traces.size());
    for (const CorpusFileResult &file : report.files) {
        SCOPED_TRACE(file.file);
        ASSERT_TRUE(file.error.empty()) << file.error;
        const Trace &trace = traces.at(file.file);
        const TraceStats stats = computeTraceStats(trace);
        EXPECT_EQ(file.stats.staticConditional,
                  stats.staticConditional);
        EXPECT_EQ(file.stats.staticUnconditional,
                  stats.staticUnconditional);
        EXPECT_EQ(file.stats.dynamicConditional,
                  stats.dynamicConditional);
        ASSERT_GT(stats.dynamicConditional,
                  options.sim.warmupBranches +
                      options.sim.flushInterval);

        const CorpusClassification want =
            referenceClassification(options.specs[0], trace, options);
        const CorpusClassification &got = file.classes;
        EXPECT_GT(want.hardSites, 0u);
        EXPECT_EQ(got.easySites, want.easySites);
        EXPECT_EQ(got.mediumSites, want.mediumSites);
        EXPECT_EQ(got.hardSites, want.hardSites);
        EXPECT_EQ(got.coldSites, want.coldSites);
        EXPECT_EQ(got.hardMispredicts, want.hardMispredicts);
        EXPECT_EQ(got.totalMispredicts, want.totalMispredicts);
        ASSERT_EQ(got.hardest.size(), want.hardest.size());
        for (std::size_t i = 0; i < want.hardest.size(); ++i) {
            EXPECT_EQ(got.hardest[i].pc, want.hardest[i].pc);
            EXPECT_EQ(got.hardest[i].branches,
                      want.hardest[i].branches);
            EXPECT_EQ(got.hardest[i].mispredicts,
                      want.hardest[i].mispredicts);
            EXPECT_EQ(got.hardest[i].klass, want.hardest[i].klass);
        }
        // Warmup mispredicts are in the tallies, not in the score.
        EXPECT_GT(want.totalMispredicts, file.results[0].mispredicts);
    }
}

TEST(Corpus, CorruptFileIsIsolated)
{
    ScratchDir dir("isolate");
    saveBinaryTrace(dir.file("good.bpt"), makeSampleTrace(4000, 31));
    writeFile(dir.file("bad.bpt"), "BPT1 this is not really a trace");
    // A gz member whose header is sound but whose last record is
    // cut short: it fails mid-replay, not at open.
    std::string truncated = bptBytes(makeSampleTrace(4000, 32));
    truncated.pop_back();
    const bool gz = writeGzFile(dir.file("bad.bpt.gz"), truncated);

    CorpusOptions options;
    options.specs = {"gshare:10:8"};
    const CorpusReport report = runCorpus(dir.str(), options);

    ASSERT_EQ(report.files.size(), gz ? 3u : 2u);
    EXPECT_FALSE(report.files[0].error.empty());
    EXPECT_EQ(report.files[0].file, "bad.bpt");
    if (gz) {
        EXPECT_EQ(report.files[1].file, "bad.bpt.gz");
        EXPECT_NE(report.files[1].error.find("truncated"),
                  std::string::npos)
            << report.files[1].error;
        EXPECT_EQ(report.files[1].records, 0u);
    }
    const CorpusFileResult &good = report.files.back();
    EXPECT_EQ(good.file, "good.bpt");
    EXPECT_TRUE(good.error.empty());
    EXPECT_GT(good.records, 0u);
}

} // namespace
} // namespace bpred
