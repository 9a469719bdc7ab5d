/**
 * @file
 * Test helpers for structural assertions on traces: a sink keeping
 * every finished span, and the `tasks` notes of its scheduler batches.
 */
#ifndef ALBERTA_TESTS_COLLECT_SINK_H
#define ALBERTA_TESTS_COLLECT_SINK_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace alberta::tests {

/** Keeps every finished span (pool workers finish spans
 * concurrently, so recording is locked). */
class CollectSink : public obs::TraceSink
{
  public:
    void
    record(const obs::SpanRecord &span) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(span);
    }

    std::vector<obs::SpanRecord>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

    /** The first recorded span named @p name, or null. */
    const obs::SpanRecord *
    find(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &s : spans_) {
            if (s.name == name)
                return &s;
        }
        return nullptr;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<obs::SpanRecord> spans_;
};

/** The `tasks` note of every `suite_batch` span: one entry per
 * Scheduler::run, in completion order. Only the scheduler opens
 * these spans, so a call that bypassed it leaves none. */
inline std::vector<std::uint64_t>
suiteBatchTasks(const std::vector<obs::SpanRecord> &spans)
{
    std::vector<std::uint64_t> tasks;
    for (const obs::SpanRecord &span : spans) {
        if (span.category != "scheduler" || span.name != "suite_batch")
            continue;
        for (const auto &[key, value] : span.attrs) {
            if (key == "tasks")
                tasks.push_back(std::stoull(value));
        }
    }
    return tasks;
}

} // namespace alberta::tests

#endif // ALBERTA_TESTS_COLLECT_SINK_H
