/**
 * @file
 * Trace-ingest throughput: the istream comparator vs BPT1 images.
 *
 * The gang/SIMD replay engine consumes records faster than the
 * original istream-based BPT1 decoder produced them, which made
 * ingestion the pipeline's bottleneck. This bench measures three
 * ingest paths over one BPT1 file (default ~8M records, honouring
 * BPRED_TRACE_SCALE and `--records`):
 *
 *   istream    the old streaming reader, kept here as the fixed
 *              comparator: ifstream reads into a 64 KiB slab, then
 *              the checked per-record bpt::readRecord
 *   read       an MmapTraceSource over the file read whole, the
 *              image openTraceSource falls back to when the file
 *              cannot be mapped (the read itself is in its open)
 *   mmap+fast  an MmapTraceSource over the mmap'd file, the default
 *
 * plus, informationally, the materializing adapters that
 * loadRealTrace() runs on the same records written as .bpt.gz,
 * native .txt, CBP text and .txt.gz (inflate and/or the text
 * scanner),
 *
 * and enforces two gates with a non-zero exit status:
 *  - byte identity: every path yields the same records (checksum,
 *    or full record equality for the materializing adapters) and
 *    byte-identical sim results — tallies and snapshot bytes — for
 *    every listSchemes() entry;
 *  - throughput: mmap+fast >= 2x istream, enforced when the trace
 *    is large enough to time meaningfully (>= 4M records);
 *    informational below that.
 *
 * Every rate is the median of interleaved runs timed on the thread
 * CPU clock (bench::interleavedSamples).
 *
 * `--json` reports records/s per path (`ingest_records_per_s_*`:
 * `_istream`, `_read` and `_mmap_fast`, then `_gz`, `_text`, `_cbp`
 * and `_text_gz`), the fast/istream ratio and peak RSS (memmeter),
 * so CI trends ingest performance run-to-run.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <tuple>
#include <unistd.h>
#include <vector>

#include "bench_common.hh"
#include "sim/factory.hh"
#include "sim/session.hh"
#include "support/aligned.hh"
#include "support/logging.hh"
#include "support/memmeter.hh"
#include "support/parse.hh"
#include "support/serialize.hh"
#include "trace/adapters.hh"
#include "trace/bpt_format.hh"
#include "trace/mmap_source.hh"
#include "trace/text_source.hh"
#include "trace/trace_io.hh"
#include "workloads/presets.hh"

using namespace bpred;

namespace
{

/** Records below which the 2x throughput gate is informational. */
constexpr std::size_t gateMinRecords = 4'000'000;

/** Interleaved repetitions; the median absorbs scheduler noise. */
constexpr int timingRepetitions = 5;

struct DrainOutcome
{
    u64 records = 0;
    u64 checksum = 0;
};

/**
 * Pull @p source dry, folding every record into an order-sensitive
 * checksum (the index weight keeps the fold associative, so it does
 * not serialize on a multiply chain). Used untimed, once per path,
 * to prove the paths produce identical records.
 */
DrainOutcome
drainChecksum(TraceSource &source, AlignedVector<BranchRecord> &block)
{
    DrainOutcome outcome;
    while (const std::size_t n =
               source.pull(block.data(), block.size())) {
        u64 fold = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const BranchRecord &record = block[i];
            fold ^= (record.pc ^ (record.taken ? 1 : 0) ^
                     (record.conditional ? 2 : 0)) *
                (outcome.records + i + 0x9e3779b97f4a7c15ull);
        }
        outcome.checksum ^= fold;
        outcome.records += n;
    }
    return outcome;
}

/**
 * Timed drain: the bare pull loop, nothing else, so the clock sees
 * ingest alone. The decode writes every record into @p block and
 * advances internal source state, so none of it can be elided; the
 * untimed checksum drain above covers correctness.
 */
double
drainTimed(TraceSource &source, AlignedVector<BranchRecord> &block)
{
    return bench::cpuSecondsFor([&] {
        while (source.pull(block.data(), block.size()) != 0) {
        }
    });
}

/**
 * The streaming BPT1 reader the images replaced, kept as the fixed
 * comparator for the 2x gate: ifstream reads into a 64 KiB slab,
 * the checked per-record bpt::readRecord decodes from it, and a
 * record cut by the slab's end is compacted to the front before the
 * next read.
 */
class SlabStreamSource : public TraceSource
{
  public:
    explicit SlabStreamSource(const std::string &path)
        : is(path, std::ios::binary), slab(slabBytes)
    {
        if (!is) {
            fatal("bench: cannot open '" + path + "'");
        }
        refill();
        // Header: magic, name length, name, record count.
        const u8 *bytes = reinterpret_cast<const u8 *>(slab.data());
        if (slabEnd < sizeof(bpt::magic) ||
            !std::equal(bpt::magic, bpt::magic + sizeof(bpt::magic),
                        slab.data())) {
            fatal("bench: '" + path + "' is not a BPT1 trace");
        }
        std::size_t at = sizeof(bpt::magic);
        const u64 name_bytes = bpt::readVarint(bytes, slabEnd, at);
        if (name_bytes > bpt::maxNameBytes || slabEnd - at < name_bytes) {
            fatal("bench: bad BPT1 name in '" + path + "'");
        }
        name_.assign(slab.data() + at, name_bytes);
        at += name_bytes;
        remaining = bpt::readVarint(bytes, slabEnd, at);
        slabAt = at;
    }

    const std::string &name() const override { return name_; }

    std::size_t
    pull(BranchRecord *out, std::size_t max) override
    {
        const std::size_t produced =
            static_cast<std::size_t>(std::min<u64>(max, remaining));
        std::size_t done = 0;
        while (done < produced) {
            const std::size_t consumed =
                bpt::readRecord(slab.data() + slabAt, slabEnd - slabAt,
                                out[done], lastPc);
            if (consumed == 0) {
                refill();
                continue;
            }
            slabAt += consumed;
            ++done;
        }
        remaining -= produced;
        return produced;
    }

  private:
    static constexpr std::size_t slabBytes = 64 * 1024;

    /** Slide the partial record to the front; top up in one read. */
    void
    refill()
    {
        const std::size_t leftover = slabEnd - slabAt;
        std::copy(slab.data() + slabAt, slab.data() + slabEnd,
                  slab.data());
        slabAt = 0;
        slabEnd = leftover;
        is.read(slab.data() + slabEnd,
                static_cast<std::streamsize>(slab.size() - slabEnd));
        const std::size_t got = static_cast<std::size_t>(is.gcount());
        if (got == 0) {
            fatal("bench: truncated BPT1 record");
        }
        slabEnd += got;
    }

    std::ifstream is;
    std::string name_;
    u64 remaining = 0;
    Addr lastPc = 0;
    AlignedVector<char> slab;
    std::size_t slabAt = 0;
    std::size_t slabEnd = 0;
};

/** One sim identity probe: tallies plus snapshot bytes. */
struct SimFingerprint
{
    u64 conditionals = 0;
    u64 mispredicts = 0;
    std::string snapshot;

    bool
    operator==(const SimFingerprint &other) const
    {
        return conditionals == other.conditionals &&
            mispredicts == other.mispredicts &&
            snapshot == other.snapshot;
    }
};

SimFingerprint
fingerprint(const std::string &spec, TraceSource &source)
{
    const std::unique_ptr<Predictor> predictor = makePredictor(spec);
    const SimResult result = simulateSource(*predictor, source);
    SimFingerprint print;
    print.conditionals = result.conditionals;
    print.mispredicts = result.mispredicts;
    if (predictor->supportsSnapshot()) {
        ByteWriter out(print.snapshot);
        predictor->saveState(out);
    }
    return print;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> extra =
        bench::initWithExtraArgs(argc, argv);
    std::size_t requested_records = 0;
    for (std::size_t i = 0; i < extra.size(); ++i) {
        if (extra[i] == "--records" && i + 1 < extra.size()) {
            requested_records = static_cast<std::size_t>(
                parseU64(extra[++i], "--records"));
        } else {
            std::cerr << "bench_trace_ingest: unknown argument '"
                      << extra[i] << "'\n";
            return 2;
        }
    }

    bench::banner("trace ingest",
                  "zero-copy mmap + sub-batch decode vs the "
                  "istream slab decoder (>= 2x, byte-identical)");

    // Default ~8M records, scaled like every other bench so the CI
    // smoke run stays light (BPRED_TRACE_SCALE).
    const std::size_t records = requested_records != 0
        ? requested_records
        : static_cast<std::size_t>(
              8'000'000.0 * effectiveTraceScale(1.0));
    const double gen_scale =
        static_cast<double>(records) / 2'000'000.0;
    Trace trace = makeIbsTrace("real_gcc", gen_scale);
    trace.setName("ingest");

    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("bench_ingest_" + std::to_string(::getpid()) + ".bpt"))
            .string();
    saveBinaryTrace(path, trace);
    const u64 file_bytes = std::filesystem::file_size(path);
    std::cout << "trace: " << trace.size() << " records, "
              << file_bytes << " bytes on disk, block "
              << bench::blockRecords() << " records\n\n";

    if (!mmapSupported()) {
        inform("mmap unavailable on this platform; nothing to "
               "compare");
        std::filesystem::remove(path);
        return bench::finish();
    }

    AlignedVector<BranchRecord> block(bench::blockRecords());
    struct Path
    {
        const char *label;
        std::function<std::unique_ptr<TraceSource>()> open;
    };
    const std::vector<Path> paths = {
        {"istream",
         [&]() { return std::make_unique<SlabStreamSource>(path); }},
        {"read",
         [&]() {
             std::ifstream is(path, std::ios::binary);
             return std::make_unique<MmapTraceSource>(
                 MappedTrace::fromBytes(readAllBytes(is)));
         }},
        {"mmap+fast",
         [&]() { return std::make_unique<MmapTraceSource>(path); }},
    };

    // One untimed checksum drain per path proves the paths decode
    // identical records (and warms the page cache for everyone).
    std::vector<u64> checksums(paths.size(), 0);
    u64 drained_records = 0;
    for (std::size_t p = 0; p < paths.size(); ++p) {
        std::unique_ptr<TraceSource> source = paths[p].open();
        const DrainOutcome outcome = drainChecksum(*source, block);
        checksums[p] = outcome.checksum;
        if (p == 0) {
            drained_records = outcome.records;
        } else if (outcome.records != drained_records) {
            std::cerr << "FAIL: " << paths[p].label
                      << " drained a different record count\n";
            return 1;
        }
    }

    // Interleave timed repetitions so drift (thermal, page cache)
    // hits every path equally; keep the per-path median. Opening
    // the source stays outside the clock.
    std::vector<std::function<double()>> drains;
    for (std::size_t p = 0; p < paths.size(); ++p) {
        drains.push_back([&, p] {
            std::unique_ptr<TraceSource> source = paths[p].open();
            return drainTimed(*source, block);
        });
    }
    const std::vector<std::vector<double>> seconds =
        bench::interleavedSamples(timingRepetitions, drains);

    bool identical = checksums[0] == checksums[1] &&
        checksums[0] == checksums[2] &&
        drained_records == trace.size();

    std::vector<double> rate(paths.size(), 0.0);
    for (std::size_t p = 0; p < paths.size(); ++p) {
        rate[p] = static_cast<double>(drained_records) /
            bench::median(seconds[p]);
    }
    const double ratio_fast = rate[2] / rate[0];

    TextTable table({"path", "Mrec/s", "MB/s", "vs istream"});
    for (std::size_t p = 0; p < paths.size(); ++p) {
        table.row().cell(paths[p].label);
        table.cell(rate[p] / 1e6, 2);
        table.cell(rate[p] / static_cast<double>(drained_records) *
                       static_cast<double>(file_bytes) / 1e6,
                   2);
        table.cell(rate[p] / rate[0], 2);
    }
    bench::emitTable("ingest", table);

    // Materializing adapter paths, informational only: the text
    // scanner over native .txt (and .txt.gz) and over CBP text, and
    // gz inflate + image decode over .bpt.gz. Each must decode
    // exactly the original records; CBP text has no unconditional
    // branches, so it must decode them all as conditional.
    Trace cbp_trace(trace.name());
    struct MaterializedPath
    {
        const char *label;
        const char *key;
        std::string file;
        const std::vector<BranchRecord> &expected;
    };
    std::vector<MaterializedPath> materialized;
    std::string native_text;
    std::string cbp_text;
    {
        std::ostringstream text;
        writeTextTrace(text, trace);
        native_text = text.str();
        const std::string txt_path = path + ".txt";
        std::ofstream(txt_path, std::ios::binary) << native_text;
        materialized.push_back({"txt (text scanner)",
                                "ingest_records_per_s_text", txt_path,
                                trace.records()});
        for (const BranchRecord &record : trace) {
            cbp_trace.appendConditional(record.pc, record.taken);
            cbp_text += std::to_string(record.pc);
            cbp_text += record.taken ? " 1\n" : " 0\n";
        }
        const std::string cbp_path = path + ".cbp.txt";
        std::ofstream(cbp_path, std::ios::binary) << cbp_text;
        materialized.push_back({"cbp txt (text scanner)",
                                "ingest_records_per_s_cbp", cbp_path,
                                cbp_trace.records()});
        if (gzSupported()) {
            std::ifstream is(path, std::ios::binary);
            writeGzFile(path + ".gz", readAllBytes(is));
            materialized.push_back({"bpt.gz (materialize)",
                                    "ingest_records_per_s_gz", path + ".gz",
                                    trace.records()});
            writeGzFile(txt_path + ".gz", native_text);
            materialized.push_back({"txt.gz (inflate + scan)",
                                    "ingest_records_per_s_text_gz",
                                    txt_path + ".gz", trace.records()});
        }
    }
    TextTable materialized_table({"path", "Mrec/s"});
    for (const MaterializedPath &file : materialized) {
        const std::vector<std::vector<double>> file_seconds =
            bench::interleavedSamples(timingRepetitions, {[&] {
                Trace loaded;
                const double seconds = bench::cpuSecondsFor(
                    [&] { loaded = loadRealTrace(file.file); });
                if (loaded.records() != file.expected) {
                    std::cerr << "FAIL: " << file.label
                              << " decoded different records\n";
                    identical = false;
                }
                return seconds;
            }});
        const double file_rate = static_cast<double>(trace.size()) /
            bench::median(file_seconds[0]);
        materialized_table.row().cell(file.label).cell(file_rate / 1e6, 2);
        bench::recordReportField(file.key, file_rate);
        std::filesystem::remove(file.file);
    }
    bench::emitTable("ingest-materialized", materialized_table);

    // The text scanner alone, as the corpus runner drives it: a
    // TextTraceSource over bytes already in memory, pulled into one
    // replay-block buffer, on each scan path. Informational.
    TextTable scan_table({"text", "path", "Mrec/s", "vs scalar"});
    for (const auto &[label, bytes, expected] :
         {std::tuple{"native", &native_text, &trace},
          std::tuple{"cbp", &cbp_text, &cbp_trace}}) {
        MemoryTraceSource reference(*expected);
        const u64 want = drainChecksum(reference, block).checksum;
        std::vector<std::function<double()>> scans;
        for (const SimdMode mode : {SimdMode::Scalar, SimdMode::Avx2}) {
            TextTraceSource check(*bytes, "", TextDialect::detect, mode);
            if (drainChecksum(check, block).checksum != want) {
                std::cerr << "FAIL: " << label << " text scan ("
                          << simdModeName(mode)
                          << ") decoded different records\n";
                identical = false;
            }
            scans.push_back([&, mode] {
                TextTraceSource source(*bytes, "", TextDialect::detect,
                                       mode);
                return drainTimed(source, block);
            });
        }
        const std::vector<std::vector<double>> scan_seconds =
            bench::interleavedSamples(timingRepetitions, scans);
        const double records = static_cast<double>(expected->size());
        const double scalar = records / bench::median(scan_seconds[0]);
        const double avx2 = records / bench::median(scan_seconds[1]);
        scan_table.row().cell(label).cell("scalar");
        scan_table.cell(scalar / 1e6, 2).cell(1.0, 2);
        scan_table.row().cell(label).cell(
            simdModeName(resolveSimdMode(SimdMode::Avx2)));
        scan_table.cell(avx2 / 1e6, 2).cell(avx2 / scalar, 2);
        const std::string key =
            std::string("ingest_text_scan_records_per_s_") + label;
        bench::recordReportField(key + "_scalar", scalar);
        bench::recordReportField(key + "_avx2", avx2);
    }
    bench::emitTable("ingest-text-scan", scan_table);

    // Sim identity sweep: every factory scheme, all three ingest
    // paths, comparing tallies and snapshot bytes.
    std::size_t schemes_checked = 0;
    for (const SchemeInfo &scheme : listSchemes()) {
        std::vector<SimFingerprint> prints;
        for (const Path &ingest : paths) {
            std::unique_ptr<TraceSource> source = ingest.open();
            prints.push_back(fingerprint(scheme.example, *source));
        }
        if (!(prints[0] == prints[1] && prints[0] == prints[2])) {
            std::cerr << "FAIL: scheme '" << scheme.example
                      << "' diverges across ingest paths\n";
            identical = false;
        }
        ++schemes_checked;
    }
    std::cout << "\nidentity: " << schemes_checked
              << " schemes x 3 ingest paths "
              << (identical ? "byte-identical" : "DIVERGED") << "\n";

    const MemUsage mem = processMemUsage();
    bench::recordReportField("ingest_records", u64(drained_records));
    bench::recordReportField("ingest_file_bytes", file_bytes);
    bench::recordReportField("ingest_records_per_s_istream", rate[0]);
    bench::recordReportField("ingest_records_per_s_read", rate[1]);
    bench::recordReportField("ingest_records_per_s_mmap_fast",
                             rate[2]);
    bench::recordReportField("ingest_fast_over_istream", ratio_fast);
    bench::recordReportField("ingest_rss_peak_bytes",
                             mem.rssPeakBytes);
    bench::recordReportField("ingest_identical", identical);

    bench::expectation(
        "mmap+fast decodes >= 2x the istream path; all three paths "
        "replay byte-identically for every scheme.");

    std::filesystem::remove(path);

    const bool gate_throughput = drained_records >= gateMinRecords;
    if (!identical) {
        std::cerr << "FAIL: ingest paths are not byte-identical\n";
        bench::finish();
        return 1;
    }
    if (gate_throughput && ratio_fast < 2.0) {
        std::cerr << "FAIL: mmap+fast is only " << ratio_fast
                  << "x istream (gate: 2.0x)\n";
        bench::finish();
        return 1;
    }
    if (!gate_throughput) {
        inform("trace below " + std::to_string(gateMinRecords) +
               " records; 2x gate informational only");
    }
    return bench::finish();
}
