#include "runtime/persistent_cache.h"

#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/obs.h"
#include "runtime/context.h"
#include "support/binio.h"
#include "support/check.h"
#include "support/rng.h"

namespace alberta::runtime {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMagic = 0x414c4252; // "ALBR"

/** Serialize the full CachedRun payload (doubles bit-exact). */
std::string
encodeRun(const CachedRun &run)
{
    support::ByteWriter w;
    const RunMeasurement &m = run.measurement;
    w.writeDouble(m.seconds);
    w.writeDouble(m.simCycles);
    w.writeU64(m.retiredOps);
    w.writeU64(m.checksum);
    for (const double ratio : m.topdown.asArray())
        w.writeDouble(ratio);
    w.writeU64(m.coverage.size());
    for (const auto &[method, fraction] : m.coverage) {
        w.writeString(method);
        w.writeDouble(fraction);
    }
    w.writeU64(run.timedSeconds.size());
    for (const double t : run.timedSeconds)
        w.writeDouble(t);
    return w.bytes();
}

bool
decodeRun(std::string_view payload, CachedRun *out)
{
    support::ByteReader r(payload);
    RunMeasurement &m = out->measurement;
    std::array<double, 4> ratios{};
    std::uint64_t coverageCount = 0;
    if (!r.readDouble(&m.seconds) || !r.readDouble(&m.simCycles) ||
        !r.readU64(&m.retiredOps) || !r.readU64(&m.checksum))
        return false;
    for (double &ratio : ratios) {
        if (!r.readDouble(&ratio))
            return false;
    }
    m.topdown.frontend = ratios[0];
    m.topdown.backend = ratios[1];
    m.topdown.badspec = ratios[2];
    m.topdown.retiring = ratios[3];
    if (!r.readU64(&coverageCount))
        return false;
    m.coverage.clear();
    for (std::uint64_t i = 0; i < coverageCount; ++i) {
        std::string method;
        double fraction = 0.0;
        if (!r.readString(&method) || !r.readDouble(&fraction))
            return false;
        m.coverage.emplace(std::move(method), fraction);
    }
    std::uint64_t timedCount = 0;
    if (!r.readU64(&timedCount) || timedCount > r.remaining() / 8)
        return false;
    out->timedSeconds.clear();
    out->timedSeconds.reserve(static_cast<std::size_t>(timedCount));
    for (std::uint64_t i = 0; i < timedCount; ++i) {
        double t = 0.0;
        if (!r.readDouble(&t))
            return false;
        out->timedSeconds.push_back(t);
    }
    return r.ok() && r.atEnd();
}

/** Keep entry names readable while staying filesystem-safe. */
std::string
sanitize(std::string_view name)
{
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        const bool keep = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '.' ||
                          c == '-' || c == '_';
        out.push_back(keep ? c : '_');
    }
    return out;
}

std::string
hex16(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** Unique-enough temporary suffix for atomic-rename writes. */
std::string
tmpSuffix()
{
    static std::atomic<std::uint64_t> counter{0};
    const auto tid = std::hash<std::thread::id>{}(
        std::this_thread::get_id());
    std::ostringstream os;
    os << ".tmp." << hex16(tid) << '.'
       << counter.fetch_add(1, std::memory_order_relaxed);
    return os.str();
}

} // namespace

PersistentCache::PersistentCache(std::string dir,
                                 obs::Registry &metrics,
                                 std::uint64_t modelVersion)
    : dir_(std::move(dir)), modelVersion_(modelVersion),
      hits_(metrics.counter("cache.disk_hits")),
      misses_(metrics.counter("cache.disk_misses")),
      corrupt_(metrics.counter("cache.disk_corrupt")),
      writes_(metrics.counter("cache.disk_writes")),
      writeFailures_(metrics.counter("cache.disk_write_failures"))
{
    support::fatalIf(dir_.empty(),
                     "persistent cache: --cache-dir must not be empty");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    support::fatalIf(ec || !fs::is_directory(dir_),
                     "persistent cache: cannot create cache directory '",
                     dir_, "'", ec ? (": " + ec.message()) : "");
}

std::string
PersistentCache::entryPath(const Benchmark &benchmark,
                           const Workload &workload) const
{
    const std::uint64_t fp =
        ResultCache::fingerprint(benchmark, workload);
    return (fs::path(dir_) /
            (sanitize(benchmark.name()) + '-' +
             sanitize(workload.name) + '-' + hex16(fp) + ".run"))
        .string();
}

bool
PersistentCache::load(const Benchmark &benchmark,
                      const Workload &workload, CachedRun *out) const
{
    const auto miss = [&](bool isCorrupt) {
        misses_.add(1);
        if (isCorrupt)
            corrupt_.add(1);
        return false;
    };

    std::ifstream in(entryPath(benchmark, workload),
                     std::ios::binary);
    if (!in)
        return miss(false); // absent: a plain (cold) miss
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in.good() && !in.eof())
        return miss(true);
    const std::string bytes = buffer.str();

    support::ByteReader r(bytes);
    std::uint32_t magic = 0, format = 0;
    std::uint64_t version = 0, fingerprint = 0, checksum = 0;
    std::string benchName, workloadName, payload;
    if (!r.readU32(&magic) || magic != kMagic)
        return miss(true);
    if (!r.readU32(&format) || !r.readU64(&version) ||
        !r.readString(&benchName) || !r.readString(&workloadName) ||
        !r.readU64(&fingerprint) || !r.readString(&payload) ||
        !r.readU64(&checksum) || !r.atEnd())
        return miss(true);
    if (support::fnv1a(payload) != checksum)
        return miss(true);
    // Well-formed but written for different content or a different
    // model: a silent miss, not corruption.
    if (format != kFormatVersion || version != modelVersion_ ||
        benchName != benchmark.name() ||
        workloadName != workload.name ||
        fingerprint != ResultCache::fingerprint(benchmark, workload))
        return miss(false);
    CachedRun run;
    if (!decodeRun(payload, &run))
        return miss(true);
    if (out)
        *out = std::move(run);
    hits_.add(1);
    return true;
}

void
PersistentCache::store(const Benchmark &benchmark,
                       const Workload &workload,
                       const CachedRun &run) const
{
    support::ByteWriter w;
    const std::string payload = encodeRun(run);
    w.writeU32(kMagic);
    w.writeU32(kFormatVersion);
    w.writeU64(modelVersion_);
    w.writeString(benchmark.name());
    w.writeString(workload.name);
    w.writeU64(ResultCache::fingerprint(benchmark, workload));
    w.writeString(payload);
    w.writeU64(support::fnv1a(payload));

    const std::string path = entryPath(benchmark, workload);
    const std::string tmp = path + tmpSuffix();
    const auto failed = [&] {
        writeFailures_.add(1);
        std::error_code ignored;
        fs::remove(tmp, ignored);
    };
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            failed();
            return;
        }
        out.write(w.bytes().data(),
                  static_cast<std::streamsize>(w.bytes().size()));
        if (!out.good()) {
            failed();
            return;
        }
    }
    // POSIX rename is atomic: readers see the old entry or the new
    // one, never a torn write; concurrent writers are last-writer-wins.
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        failed();
        return;
    }
    writes_.add(1);
}

std::uint64_t
PersistentCache::modelVersionFingerprint()
{
    // Computed once: the probe is deterministic, so the fingerprint is
    // a process-wide constant for a given build of the model.
    static const std::uint64_t fingerprint = [] {
        ExecutionContext context;
        topdown::Machine &m = context.machine();
        support::Rng rng(0xa1b357a9);
        {
            auto scope = context.method("probe.alu", 2048);
            m.ops(topdown::OpKind::IntAlu, 4096);
            m.ops(topdown::OpKind::IntMul, 512);
            m.ops(topdown::OpKind::FpAdd, 1024);
        }
        {
            auto scope = context.method("probe.branchy", 1024);
            for (int i = 0; i < 4096; ++i) {
                m.branch(static_cast<std::uint32_t>(i % 7),
                         (i & 3) != 0);
                m.branch(100, rng.chance(0.85));
                m.indirect(7, rng.below(12));
            }
        }
        {
            auto scope = context.method("probe.memory", 4096);
            for (int i = 0; i < 4096; ++i)
                m.load(0x1000000ULL + rng.below(256 * 1024));
            m.stream(topdown::OpKind::Load, 0x4000000ULL, 4096, 8);
            m.stream(topdown::OpKind::Store, 0x4800000ULL, 2048, 8);
        }
        context.consume(m.retiredOps());
        context.consume(m.cycles());
        const auto ratios = m.ratios().asArray();
        for (const double ratio : ratios)
            context.consume(std::bit_cast<std::uint64_t>(ratio));
        const auto &h = m.hierarchy();
        for (const topdown::Cache *cache :
             {&h.l1d(), &h.l1i(), &h.l2(), &h.l3()}) {
            context.consume(cache->accesses());
            context.consume(cache->misses());
        }
        context.consume(m.predictor().conditionals());
        context.consume(m.predictor().mispredicts());
        for (const auto &[method, fraction] : context.coverage()) {
            context.consume(support::fnv1a(method));
            context.consume(std::bit_cast<std::uint64_t>(fraction));
        }
        return context.checksum();
    }();
    return fingerprint;
}

} // namespace alberta::runtime
