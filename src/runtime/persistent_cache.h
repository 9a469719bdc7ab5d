/**
 * @file
 * Versioned, content-addressed on-disk store for deterministic model
 * runs — the persistence layer behind runtime::ResultCache, so a
 * second *process* characterizing the same suite starts warm.
 *
 * Every entry is one file in the cache directory, addressed by the
 * (benchmark, workload name, workload content fingerprint) triple. The
 * file carries a format version, a model-version fingerprint (derived
 * from a deterministic probe run of the top-down Machine alone, so a
 * change to the machine invalidates old entries; no benchmark kernel
 * code is in the key — the workload fingerprint covers names, seed,
 * params and generated files — so clear the directory after editing a
 * benchmark, see ROADMAP item 9), the identifying triple, and a checksummed binary payload holding the
 * CachedRun. Writes go to a unique temporary file followed by an
 * atomic rename: concurrent writers are last-writer-wins and readers
 * can never observe a torn entry. Corrupted, truncated, or
 * version-mismatched entries are silently treated as misses.
 */
#ifndef ALBERTA_RUNTIME_PERSISTENT_CACHE_H
#define ALBERTA_RUNTIME_PERSISTENT_CACHE_H

#include <atomic>
#include <cstdint>
#include <string>

#include "runtime/result_cache.h"

namespace alberta::obs {
class Counter;
class Registry;
} // namespace alberta::obs

namespace alberta::runtime {

/** On-disk result store; see the file comment for the format. */
class PersistentCache
{
  public:
    /** Bump when the on-disk layout itself changes shape. */
    static constexpr std::uint32_t kFormatVersion = 1;

    /**
     * Open (creating if needed) the store at @p dir.
     *
     * @param modelVersion entries written by a different model version
     *        are treated as misses; defaults to
     *        @ref modelVersionFingerprint. Tests override it to
     *        exercise the rejection path.
     * @throws support::FatalError when @p dir is empty or cannot be
     *         created/used as a directory.
     */
    explicit PersistentCache(std::string dir,
                             std::uint64_t modelVersion =
                                 modelVersionFingerprint());

    /** Probe the store; counts a disk hit, miss, or corrupt entry. */
    bool load(const Benchmark &benchmark, const Workload &workload,
              CachedRun *out) const;

    /**
     * Persist @p run (best effort: I/O failures drop the write and
     * bump @ref writeFailures, they never fail the caller).
     */
    void store(const Benchmark &benchmark, const Workload &workload,
               const CachedRun &run) const;

    const std::string &dir() const { return dir_; }
    std::uint64_t modelVersion() const { return modelVersion_; }

    /** Entry file path for (benchmark, workload) — exposed so tests
     * can truncate or bit-flip entries. */
    std::string entryPath(const Benchmark &benchmark,
                          const Workload &workload) const;

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    /** Entries rejected as unreadable (truncated, bad magic, payload
     * checksum mismatch) — a subset of @ref misses. */
    std::uint64_t corrupt() const { return corrupt_.load(); }
    std::uint64_t writes() const { return writes_.load(); }
    std::uint64_t writeFailures() const
    {
        return writeFailures_.load();
    }

    /**
     * Mirror activity into @p metrics as `cache.disk_hits`,
     * `cache.disk_misses`, `cache.disk_corrupt`, and
     * `cache.disk_writes` (non-owning; nullptr detaches).
     */
    void attachMetrics(obs::Registry *metrics);

    /**
     * Fingerprint of the current model semantics: a small fixed probe
     * workload driven through the execution stack (top-down machine,
     * coverage profiler, checksum accumulator) with every observable
     * output folded in. Any change to the model's decisions changes
     * the fingerprint, so stale disk entries miss instead of serving
     * results the current code would not produce.
     */
    static std::uint64_t modelVersionFingerprint();

  private:
    std::string dir_;
    std::uint64_t modelVersion_ = 0;
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    mutable std::atomic<std::uint64_t> corrupt_{0};
    mutable std::atomic<std::uint64_t> writes_{0};
    mutable std::atomic<std::uint64_t> writeFailures_{0};
    obs::Counter *hitCounter_ = nullptr;
    obs::Counter *missCounter_ = nullptr;
    obs::Counter *corruptCounter_ = nullptr;
    obs::Counter *writeCounter_ = nullptr;
};

} // namespace alberta::runtime

#endif // ALBERTA_RUNTIME_PERSISTENT_CACHE_H
