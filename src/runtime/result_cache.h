/**
 * @file
 * Content-addressed cache of deterministic model runs, in memory and,
 * given a directory, on disk.
 *
 * A workload is a pure function of its seed and parameters, and the
 * model outputs of a run (top-down fractions, coverage, checksum,
 * retired ops, simulated cycles) are pure functions of the (benchmark,
 * workload) pair and of the model's code. Every entry is keyed once,
 * on a 64-bit digest of two things: the model-source digest (every
 * .h, .cc and CMakeLists.txt under src/, hashed at build time, so any
 * edit to a kernel, the machine or this cache's own file format makes
 * every old entry miss) and @ref ResultCache::fingerprint of the
 * workload's content. The benchmark and workload names are stored
 * with each entry as the collision guard. Repeated characterizations
 * (Table II re-runs, the figure benches, FDO baselines, a second
 * process on the same cache directory) never recompute an identical
 * model run. Wall-clock seconds stored alongside are the times
 * measured when the entry was first computed.
 */
#ifndef ALBERTA_RUNTIME_RESULT_CACHE_H
#define ALBERTA_RUNTIME_RESULT_CACHE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/obs.h"
#include "runtime/benchmark.h"

namespace alberta::runtime {

/** One memoized run: model outputs plus any recorded timing runs. */
struct CachedRun
{
    RunMeasurement measurement;      //!< deterministic model outputs
    /** Wall times of the timed repetitions (refrate only). */
    std::vector<double> timedSeconds;
};

/**
 * Thread-safe memoization table for deterministic run measurements,
 * with an optional disk tier: one file per entry, so a later process
 * on the same directory starts warm. Memory misses probe the disk and
 * promote its hits; every insert writes through. Corrupt, truncated
 * or foreign entry files are misses, never crashes.
 */
class ResultCache
{
  public:
    /**
     * @param metrics registry holding this cache's counters:
     *        `cache.hits` / `cache.misses` per probe,
     *        `model.runs` / `model.uops_executed` per executed run
     *        (see @ref countRun) and, with a directory, the disk
     *        tier's `cache.disk_{hits,misses,corrupt,writes,
     *        write_failures}`. Must outlive the cache.
     * @param dir disk tier directory, created if needed ("" = memory
     *        only).
     * @param sourceDigest model-source digest the keys cover; tests
     *        pass their own to act as another build of the model.
     * @throws support::FatalError when @p dir cannot be created or
     *         used as a directory.
     */
    explicit ResultCache(obs::Registry &metrics,
                         const std::string &dir = "",
                         std::uint64_t sourceDigest = buildDigest());
    ~ResultCache();

    /** Digest of the model sources this binary was built from. */
    static std::uint64_t buildDigest();

    /** Fingerprint of the (benchmark, workload) content. */
    static std::uint64_t fingerprint(const Benchmark &benchmark,
                                     const Workload &workload);

    /** Look up a prior run; counts a hit or miss. An entry holding
     * fewer than @p minTimedRuns timed repetitions cannot answer the
     * probe, and counts as a miss in each tier that holds it. */
    bool lookup(const Benchmark &benchmark, const Workload &workload,
                CachedRun *out, std::size_t minTimedRuns = 0) const;

    /** Insert (or overwrite) the entry for this run. A disk write is
     * best effort: a failure is counted, never raised. */
    void insert(const Benchmark &benchmark, const Workload &workload,
                CachedRun run);

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    /** Memory-tier entry count. */
    std::size_t size() const;

    /**
     * Count one executed model run of @p retiredOps uops.
     * measureCached calls it on a miss; timed refrate repetitions and
     * FDO's profile and optimized runs, which run outside the cache,
     * call it once per run. A replay counts nothing.
     */
    void countRun(std::uint64_t retiredOps) const;

  private:
    struct Entry
    {
        std::string benchmark; //!< the names guard key collisions
        std::string workload;
        CachedRun run;
    };
    struct Disk; //!< the disk tier (result_cache.cc)

    /** The one key both tiers use; hashes the workload once. */
    std::uint64_t key(const Benchmark &benchmark,
                      const Workload &workload) const;

    const std::uint64_t sourceDigest_;
    mutable std::mutex mutex_;
    /** Mutable: lookup() promotes disk hits into the memory table. */
    mutable std::unordered_map<std::uint64_t, Entry> entries_;
    obs::Counter &hits_;
    obs::Counter &misses_;
    obs::Counter &modelRuns_;
    obs::Counter &modelUops_;
    std::unique_ptr<const Disk> disk_; //!< null = memory only
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
