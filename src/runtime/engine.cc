#include "runtime/engine.h"

#include <algorithm>
#include <cstdlib>

#include "support/check.h"

namespace alberta::runtime {

Engine::Engine(Config config)
    : sink_(std::move(config.sink)), tracePath_(config.tracePath),
      cacheDir_(config.cacheDir), tracer_(sink_.get()),
      executor_(config.jobs), cache_(metrics_, cacheDir_)
{
    executor_.attachObservability(&tracer_, &metrics_);
}

void
Engine::flushTrace()
{
    if (sink_)
        sink_->flush();
}

std::vector<obs::MetricSample>
Engine::metricsSnapshot() const
{
    auto out = metrics_.snapshot();
    obs::MetricSample jobs;
    jobs.name = "executor.jobs";
    jobs.kind = "gauge";
    jobs.value = executor_.jobs();
    out.push_back(std::move(jobs));
    obs::MetricSample entries;
    entries.name = "cache.entries";
    entries.kind = "gauge";
    entries.value = static_cast<double>(cache_.size());
    out.push_back(std::move(entries));

    std::sort(out.begin(), out.end(),
              [](const obs::MetricSample &a,
                 const obs::MetricSample &b) { return a.name < b.name; });
    return out;
}

Engine::Builder &
Engine::Builder::cacheDirOption(const std::string &flagValue,
                                bool flagGiven)
{
    if (flagGiven) {
        support::fatalIf(flagValue.empty(),
                         "--cache-dir requires a non-empty directory");
        config_.cacheDir = flagValue;
        return *this;
    }
    const char *env = std::getenv("ALBERTA_CACHE_DIR");
    config_.cacheDir = env ? env : "";
    return *this;
}

Engine::Builder &
Engine::Builder::traceFile(const std::string &path)
{
    if (path.empty()) {
        config_.sink.reset();
        config_.tracePath.clear();
    } else {
        config_.sink = std::make_unique<obs::JsonLinesSink>(path);
        config_.tracePath = path;
    }
    return *this;
}

Engine::Builder &
Engine::Builder::traceSink(std::unique_ptr<obs::TraceSink> sink)
{
    config_.sink = std::move(sink);
    config_.tracePath.clear();
    return *this;
}

} // namespace alberta::runtime
