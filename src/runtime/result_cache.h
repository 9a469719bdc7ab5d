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

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/obs.h"
#include "runtime/benchmark.h"

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
    /**
     * @param metrics registry holding this cache's counters:
     *        `cache.hits` / `cache.misses` per probe and
     *        `model.runs` / `model.uops_executed` per executed run
     *        (see @ref countRun). Must outlive the cache.
     */
    explicit ResultCache(obs::Registry &metrics);

    /** Fingerprint of the (benchmark, workload) content. */
    static std::uint64_t fingerprint(const Benchmark &benchmark,
                                     const Workload &workload);

    /** Look up a prior run; counts a hit or miss. */
    bool lookup(const Benchmark &benchmark, const Workload &workload,
                CachedRun *out) const;

    /** Insert (or overwrite) the entry for this run. */
    void insert(const Benchmark &benchmark, const Workload &workload,
                CachedRun run);

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::size_t size() const;

    /**
     * Count one executed model run and its retired uops. measureCached
     * calls it on a miss; timed refrate repetitions, which run outside
     * the cache, call it once per repetition. A replay counts nothing.
     */
    void countRun(const RunMeasurement &run) const;

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
    obs::Counter &hits_;
    obs::Counter &misses_;
    obs::Counter &modelRuns_;
    obs::Counter &modelUops_;
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
