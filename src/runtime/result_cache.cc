#include "runtime/result_cache.h"

#include <filesystem>

#include "runtime/cache_entry.h"
#include "source_digest.h" // generated: ALBERTA_SOURCE_DIGEST
#include "support/check.h"
#include "support/timing.h"

namespace alberta::runtime {

namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void
hashBytes(std::uint64_t &h, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= kFnvPrime;
    }
}

/** Length-prefixed string hashing so field boundaries stay unambiguous. */
void
hashString(std::uint64_t &h, const std::string &s)
{
    const std::uint64_t size = s.size();
    hashBytes(h, &size, sizeof(size));
    hashBytes(h, s.data(), s.size());
}

} // namespace

/** The disk tier: one entry file per key under dir. */
struct ResultCache::Disk
{
    std::string dir;
    obs::Counter &hits;
    obs::Counter &misses;
    obs::Counter &corrupt; //!< unreadable entries, a subset of misses
    obs::Counter &writes;
    obs::Counter &writeFailures;
};

ResultCache::ResultCache(obs::Registry &metrics, const std::string &dir,
                         std::uint64_t sourceDigest)
    : sourceDigest_(sourceDigest),
      hits_(metrics.counter("cache.hits")),
      misses_(metrics.counter("cache.misses")),
      modelRuns_(metrics.counter("model.runs")),
      modelUops_(metrics.counter("model.uops_executed"))
{
    if (dir.empty())
        return;
    std::error_code ec;
    fs::create_directories(dir, ec);
    support::fatalIf(ec || !fs::is_directory(dir),
                     "persistent cache: cannot create cache directory '",
                     dir, "'", ec ? (": " + ec.message()) : "");
    disk_.reset(new Disk{dir, metrics.counter("cache.disk_hits"),
                         metrics.counter("cache.disk_misses"),
                         metrics.counter("cache.disk_corrupt"),
                         metrics.counter("cache.disk_writes"),
                         metrics.counter("cache.disk_write_failures")});
}

ResultCache::~ResultCache() = default;

std::uint64_t
ResultCache::buildDigest()
{
    return ALBERTA_SOURCE_DIGEST;
}

std::uint64_t
ResultCache::fingerprint(const Benchmark &benchmark,
                         const Workload &workload)
{
    std::uint64_t h = kFnvOffset;
    hashString(h, benchmark.name());
    hashString(h, workload.name);
    hashBytes(h, &workload.seed, sizeof(workload.seed));
    // Params and files are ordered maps, so iteration (and therefore
    // the fingerprint) is deterministic.
    for (const auto &[key, value] : workload.params.entries()) {
        hashString(h, key);
        hashString(h, value);
    }
    for (const auto &[name, content] : workload.files) {
        hashString(h, name);
        hashString(h, content);
    }
    return h;
}

std::uint64_t
ResultCache::key(const Benchmark &benchmark,
                 const Workload &workload) const
{
    const std::uint64_t fp = fingerprint(benchmark, workload);
    std::uint64_t h = kFnvOffset;
    hashBytes(h, &sourceDigest_, sizeof sourceDigest_);
    hashBytes(h, &fp, sizeof fp);
    return h;
}

bool
ResultCache::lookup(const Benchmark &benchmark, const Workload &workload,
                    CachedRun *out, std::size_t minTimedRuns) const
{
    const std::uint64_t k = key(benchmark, workload);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(k);
        if (it != entries_.end() &&
            it->second.benchmark == benchmark.name() &&
            it->second.workload == workload.name &&
            it->second.run.timedSeconds.size() >= minTimedRuns) {
            if (out)
                *out = it->second.run;
            hits_.add(1);
            return true;
        }
    }
    if (!disk_) {
        misses_.add(1);
        return false;
    }
    // Fall through to the disk tier; a disk hit is promoted into the
    // memory table so later probes stay in-process.
    Entry loaded{benchmark.name(), workload.name, {}};
    const entry::Read read =
        entry::read(disk_->dir, k, loaded.benchmark,
                    loaded.workload, &loaded.run);
    if (read != entry::Read::Hit ||
        loaded.run.timedSeconds.size() < minTimedRuns) {
        disk_->misses.add(1);
        if (read == entry::Read::Corrupt)
            disk_->corrupt.add(1);
        misses_.add(1);
        return false;
    }
    disk_->hits.add(1);
    hits_.add(1);
    if (out)
        *out = loaded.run;
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[k] = std::move(loaded);
    return true;
}

void
ResultCache::countRun(std::uint64_t retiredOps) const
{
    modelRuns_.add(1);
    modelUops_.add(retiredOps);
}

void
ResultCache::insert(const Benchmark &benchmark, const Workload &workload,
                    CachedRun run)
{
    const std::uint64_t k = key(benchmark, workload);
    Entry fresh{benchmark.name(), workload.name, std::move(run)};
    if (disk_) {
        const bool written =
            entry::write(disk_->dir, k, fresh.benchmark,
                         fresh.workload, fresh.run);
        (written ? disk_->writes : disk_->writeFailures).add(1);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[k] = std::move(fresh);
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

namespace {

/** runOnce with the run's cost restated in thread CPU seconds: an
 * untimed model run's `seconds` feeds
 * Characterization::secondsPerWorkload as a cost, not an end-to-end
 * latency, and CPU time keeps it meaningful when pool workers
 * oversubscribe the cores.
 * Timed refrate repetitions bypass this path — their wall time is
 * the paper's measurement. */
RunMeasurement
runOnceCpuCosted(const Benchmark &benchmark, const Workload &workload)
{
    const double cpu0 = support::threadCpuSeconds();
    RunMeasurement m = runOnce(benchmark, workload);
    m.seconds = support::threadCpuSeconds() - cpu0;
    return m;
}

} // namespace

RunMeasurement
measureCached(const Benchmark &benchmark, const Workload &workload,
              ResultCache *cache)
{
    if (!cache)
        return runOnceCpuCosted(benchmark, workload);
    CachedRun cached;
    if (cache->lookup(benchmark, workload, &cached))
        return cached.measurement;
    cached.measurement = runOnceCpuCosted(benchmark, workload);
    cache->countRun(cached.measurement.retiredOps);
    cache->insert(benchmark, workload, cached);
    return cached.measurement;
}

} // namespace alberta::runtime
