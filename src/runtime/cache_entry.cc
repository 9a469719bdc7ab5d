#include "runtime/cache_entry.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "support/binio.h"

namespace alberta::runtime::entry {

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
    std::uint64_t coverageCount = 0;
    if (!r.readDouble(&m.seconds) || !r.readDouble(&m.simCycles) ||
        !r.readU64(&m.retiredOps) || !r.readU64(&m.checksum) ||
        !r.readDouble(&m.topdown.frontend) ||
        !r.readDouble(&m.topdown.backend) ||
        !r.readDouble(&m.topdown.badspec) ||
        !r.readDouble(&m.topdown.retiring) ||
        !r.readU64(&coverageCount))
        return false;
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

/** Entry file path: the names (filesystem-safe) and the key in hex. */
std::string
entryPath(const std::string &dir, std::uint64_t key,
          std::string_view benchmark, std::string_view workload)
{
    return (fs::path(dir) / (sanitize(benchmark) + '-' +
                             sanitize(workload) + '-' + hex16(key) +
                             ".run"))
        .string();
}

/** Unique-enough temporary suffix for atomic-rename writes. */
std::string
tmpSuffix()
{
    static std::atomic<std::uint64_t> counter{0};
    const auto tid = std::hash<std::thread::id>{}(
        std::this_thread::get_id());
    return ".tmp." + hex16(tid) + '.' +
           std::to_string(
               counter.fetch_add(1, std::memory_order_relaxed));
}

} // namespace

Read
read(const std::string &dir, std::uint64_t key,
     std::string_view benchmark, std::string_view workload,
     CachedRun *out)
{
    std::ifstream in(entryPath(dir, key, benchmark, workload),
                     std::ios::binary);
    if (!in)
        return Read::Miss; // absent: a plain (cold) miss
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in.good() && !in.eof())
        return Read::Corrupt;
    const std::string bytes = buffer.str();

    support::ByteReader r(bytes);
    std::uint32_t magic = 0;
    std::uint64_t storedKey = 0, checksum = 0;
    std::string benchName, workloadName, payload;
    if (!r.readU32(&magic) || magic != kMagic ||
        !r.readU64(&storedKey) || !r.readString(&benchName) ||
        !r.readString(&workloadName) || !r.readString(&payload) ||
        !r.readU64(&checksum) || !r.atEnd() ||
        support::fnv1a(payload) != checksum)
        return Read::Corrupt;
    // Well-formed but written for another key or other names: a
    // silent miss, not corruption.
    if (storedKey != key || benchName != benchmark ||
        workloadName != workload)
        return Read::Miss;
    CachedRun run;
    if (!decodeRun(payload, &run))
        return Read::Corrupt;
    if (out)
        *out = std::move(run);
    return Read::Hit;
}

bool
write(const std::string &dir, std::uint64_t key,
      std::string_view benchmark, std::string_view workload,
      const CachedRun &run)
{
    const std::string path = entryPath(dir, key, benchmark, workload);
    const std::string tmp = path + tmpSuffix();
    support::ByteWriter w;
    const std::string payload = encodeRun(run);
    w.writeU32(kMagic);
    w.writeU64(key);
    w.writeString(benchmark);
    w.writeString(workload);
    w.writeString(payload);
    w.writeU64(support::fnv1a(payload));

    bool ok = false;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(w.bytes().data(),
                  static_cast<std::streamsize>(w.bytes().size()));
        ok = out.good();
    }
    // POSIX rename is atomic: readers see the old entry or the new
    // one, never a torn write; concurrent writers are last-writer-wins.
    std::error_code ec;
    if (ok) {
        fs::rename(tmp, path, ec);
        ok = !ec;
    }
    if (!ok)
        fs::remove(tmp, ec);
    return ok;
}

} // namespace alberta::runtime::entry
