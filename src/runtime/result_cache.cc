#include "runtime/result_cache.h"

#include "obs/obs.h"
#include "runtime/persistent_cache.h"
#include "support/timing.h"

namespace alberta::runtime {

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

std::string
ResultCache::key(const Benchmark &benchmark, const Workload &workload)
{
    return benchmark.name() + '/' + workload.name;
}

bool
ResultCache::lookup(const Benchmark &benchmark, const Workload &workload,
                    CachedRun *out) const
{
    const std::string k = key(benchmark, workload);
    const std::uint64_t fp = fingerprint(benchmark, workload);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(k);
        if (it != entries_.end() && it->second.fingerprint == fp) {
            if (out)
                *out = it->second.run;
            ++hits_;
            if (hitCounter_)
                hitCounter_->add(1);
            return true;
        }
    }
    // Fall through to the on-disk store; a disk hit is promoted into
    // the memory table so later probes stay in-process.
    CachedRun fromDisk;
    if (disk_ && disk_->load(benchmark, workload, &fromDisk)) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            Entry &entry = entries_[k];
            entry.fingerprint = fp;
            entry.run = fromDisk;
        }
        if (out)
            *out = std::move(fromDisk);
        ++hits_;
        if (hitCounter_)
            hitCounter_->add(1);
        return true;
    }
    ++misses_;
    if (missCounter_)
        missCounter_->add(1);
    return false;
}

void
ResultCache::attachMetrics(obs::Registry *metrics)
{
    hitCounter_ = metrics ? &metrics->counter("cache.hits") : nullptr;
    missCounter_ =
        metrics ? &metrics->counter("cache.misses") : nullptr;
}

void
ResultCache::attachPersistent(const PersistentCache *disk)
{
    disk_ = disk;
}

void
ResultCache::insert(const Benchmark &benchmark, const Workload &workload,
                    CachedRun run)
{
    if (disk_)
        disk_->store(benchmark, workload, run);
    Entry entry;
    entry.fingerprint = fingerprint(benchmark, workload);
    entry.run = std::move(run);
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[key(benchmark, workload)] = std::move(entry);
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    hits_ = 0;
    misses_ = 0;
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
    cache->insert(benchmark, workload, cached);
    return cached.measurement;
}

} // namespace alberta::runtime
