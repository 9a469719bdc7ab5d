/**
 * @file
 * Content-addressed cache of deterministic model runs.
 *
 * A workload is a pure function of its seed and parameters, and the
 * model outputs of a run (top-down fractions, coverage, checksum,
 * retired ops, simulated cycles) are pure functions of the (benchmark,
 * workload) pair. The cache keys on a fingerprint of that content so
 * repeated characterizations — Table II re-runs, the figure benches,
 * FDO cross-validation baselines — never recompute an identical model
 * run. Wall-clock seconds stored alongside are the times measured when
 * the entry was first computed.
 */
#ifndef ALBERTA_RUNTIME_RESULT_CACHE_H
#define ALBERTA_RUNTIME_RESULT_CACHE_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/benchmark.h"

namespace alberta::obs {
class Counter;
class Registry;
} // namespace alberta::obs

namespace alberta::runtime {

class PersistentCache;

/** One memoized run: model outputs plus any recorded timing runs. */
struct CachedRun
{
    RunMeasurement measurement;      //!< deterministic model outputs
    /** Wall times of the timed repetitions (refrate only). */
    std::vector<double> timedSeconds;
};

/**
 * Thread-safe memoization table for deterministic run measurements.
 *
 * Entries are addressed by benchmark name, workload name, and a 64-bit
 * FNV-1a fingerprint over the workload's full content (seed, parameter
 * bag, generated artifacts), so a workload edited in place — same name,
 * different content — misses instead of returning stale results.
 */
class ResultCache
{
  public:
    /** Fingerprint of the (benchmark, workload) content. */
    static std::uint64_t fingerprint(const Benchmark &benchmark,
                                     const Workload &workload);

    /** Look up a prior run; counts a hit or miss. */
    bool lookup(const Benchmark &benchmark, const Workload &workload,
                CachedRun *out) const;

    /** Insert (or overwrite) the entry for this run. */
    void insert(const Benchmark &benchmark, const Workload &workload,
                CachedRun run);

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::size_t size() const;

    /** Drop all entries and zero the counters. */
    void clear();

    /**
     * Mirror hit/miss activity into @p metrics as the `cache.hits` /
     * `cache.misses` counters (non-owning; nullptr detaches). Probe
     * results are unaffected — this is observation only.
     */
    void attachMetrics(obs::Registry *metrics);

    /**
     * Back this cache with an on-disk store (non-owning; nullptr
     * detaches). Lookups falling through the in-memory table probe
     * the store and promote disk hits into memory — a disk-backed hit
     * counts as a hit here and as a disk hit on @p disk — and every
     * insert writes through, so a later process starts warm.
     */
    void attachPersistent(const PersistentCache *disk);

  private:
    struct Entry
    {
        std::uint64_t fingerprint = 0;
        CachedRun run;
    };

    static std::string key(const Benchmark &benchmark,
                           const Workload &workload);

    mutable std::mutex mutex_;
    /** Mutable: lookup() promotes disk hits into the memory table. */
    mutable std::unordered_map<std::string, Entry> entries_;
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    obs::Counter *hitCounter_ = nullptr;
    obs::Counter *missCounter_ = nullptr;
    const PersistentCache *disk_ = nullptr;
};

/**
 * Run @p workload through the model, memoized in @p cache when one is
 * given (pass nullptr for a plain uncached @ref runOnce).
 */
RunMeasurement measureCached(const Benchmark &benchmark,
                             const Workload &workload,
                             ResultCache *cache);

} // namespace alberta::runtime

#endif // ALBERTA_RUNTIME_RESULT_CACHE_H
