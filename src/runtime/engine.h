/**
 * @file
 * The run-session facade: one object owning everything a
 * characterization session shares — the worker pool, the result cache,
 * and the observability layer (metrics registry + tracer). The
 * registry is the session's only set of books: every count and summed
 * duration the components keep lives there. `core::characterize`,
 * `core::characterizeSuite` and `fdo::crossValidate` all take an
 * `Engine&`: there is no engine-less way to characterize.
 *
 * Construction is builder-style because the pool size and the trace
 * sink must be fixed before the members come up:
 *
 * @code
 *   runtime::Engine engine = runtime::Engine::Builder()
 *                                .jobs(8)
 *                                .traceFile("run.jsonl")
 *                                .build();
 *   core::RunRequest request;
 *   core::execute(request, engine);
 * @endcode
 *
 * An Engine without a trace sink runs the null sink: every span entry
 * point collapses to a single branch, and model outputs are
 * bit-identical with tracing on or off.
 */
#ifndef ALBERTA_RUNTIME_ENGINE_H
#define ALBERTA_RUNTIME_ENGINE_H

#include <memory>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "runtime/executor.h"
#include "runtime/result_cache.h"

namespace alberta::runtime {

/** Shared execution + observability state for a run session. */
class Engine
{
  public:
    class Builder;

    /** Default session: auto-sized pool, no tracing. */
    Engine() : Engine(Config{}) {}

    /** Convenience: pool of @p jobs (see Executor), no tracing. */
    explicit Engine(int jobs) : Engine(makeConfig(jobs)) {}

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    Executor &executor() { return executor_; }
    ResultCache &cache() { return cache_; }
    obs::Registry &metrics() { return metrics_; }
    obs::Tracer &tracer() { return tracer_; }

    int jobs() const { return executor_.jobs(); }
    bool tracing() const { return tracer_.enabled(); }
    /** Trace file path ("" when tracing to a custom sink or off). */
    const std::string &tracePath() const { return tracePath_; }
    /** Cache directory ("" when the disk cache is disabled). */
    const std::string &cacheDir() const { return cacheDir_; }

    /** Flush the trace sink (no-op for the null sink). */
    void flushTrace();

    /**
     * The end-of-run metrics table: every registry metric plus the
     * pool size (`executor.jobs`) and the memory-cache entry count
     * (`cache.entries`), sorted by name. `alberta_cli --metrics` and
     * the daemon's `/metrics` both print it.
     */
    std::vector<obs::MetricSample> metricsSnapshot() const;

  private:
    struct Config
    {
        int jobs = 0;
        std::string tracePath;
        std::string cacheDir;
        std::unique_ptr<obs::TraceSink> sink;
    };

    explicit Engine(Config config);

    static Config
    makeConfig(int jobs)
    {
        Config c;
        c.jobs = jobs;
        return c;
    }

    std::unique_ptr<obs::TraceSink> sink_; //!< null = null sink
    std::string tracePath_;
    std::string cacheDir_;
    obs::Registry metrics_;
    obs::Tracer tracer_;
    Executor executor_;
    ResultCache cache_; //!< disk-backed when cacheDir_ is set
};

/** Builder-style Engine configuration. */
class Engine::Builder
{
  public:
    /** Worker count (0 = Executor::defaultJobs). */
    Builder &
    jobs(int n)
    {
        config_.jobs = n;
        return *this;
    }

    /** Trace spans to @p path as JSON lines ("" = no tracing). */
    Builder &traceFile(const std::string &path);

    /** Trace spans to a custom sink (overrides traceFile). */
    Builder &traceSink(std::unique_ptr<obs::TraceSink> sink);

    /**
     * Give the result cache a disk tier at @p dir (created if
     * needed; "" disables persistence). `build()` raises
     * support::FatalError when the directory cannot be created.
     */
    Builder &
    cacheDir(const std::string &dir)
    {
        config_.cacheDir = dir;
        return *this;
    }

    /**
     * Resolve the session cache directory the way every binary does:
     * an explicit `--cache-dir` value wins, otherwise the
     * `ALBERTA_CACHE_DIR` environment variable, otherwise no
     * persistence. An explicitly given empty value is fatal — both
     * binaries emit the identical diagnostic — and an unusable
     * directory is fatal in `build()` (see cacheDir). @p flagGiven
     * distinguishes "--cache-dir ''" from the flag being absent.
     */
    Builder &cacheDirOption(const std::string &flagValue,
                            bool flagGiven);

    /** Construct the engine (relies on guaranteed copy elision:
     * Engine itself is neither copyable nor movable). */
    Engine
    build()
    {
        return Engine(std::move(config_));
    }

  private:
    Config config_;
};

} // namespace alberta::runtime

#endif // ALBERTA_RUNTIME_ENGINE_H
