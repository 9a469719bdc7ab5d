#include "runtime/scheduler.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "support/check.h"

namespace alberta::runtime {

Scheduler::Scheduler(Executor &executor, obs::Tracer *tracer,
                     obs::Registry *metrics)
    : executor_(executor), tracer_(tracer)
{
    if (metrics) {
        dispatchCounter_ = &metrics->counter("scheduler.dispatched");
        stealCounter_ = &metrics->counter("scheduler.steals_avoided");
    }
}

SchedulerStats
Scheduler::run(std::vector<SuiteTask> tasks)
{
    using Clock = std::chrono::steady_clock;
    SchedulerStats stats;
    if (tasks.empty())
        return stats;

    obs::Span batch(tracer_, "suite_batch", "scheduler");
    const std::uint64_t batchId = batch.id();
    const auto start = Clock::now();

    // Longest-hint-first order. The sort is stable, so tasks with
    // equal hints — hintless ones included — keep submission order.
    std::vector<std::size_t> order(tasks.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return tasks[a].costHint > tasks[b].costHint;
                     });
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        if (order[pos] > pos)
            ++stats.stealsAvoided;
    }
    stats.dispatched = tasks.size();

    executor_.parallelFor(tasks.size(), [&](std::size_t i) {
        SuiteTask &task = tasks[order[i]];
        support::panicIf(!task.run,
                         "scheduler: task has no work: " + task.name);
        obs::Span span(tracer_, task.name, task.category, batchId);
        task.run(span);
    });

    if (dispatchCounter_) {
        dispatchCounter_->add(stats.dispatched);
        stealCounter_->add(stats.stealsAvoided);
    }
    stats.batchSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    batch.note("tasks", stats.dispatched);
    batch.note("reordered", stats.stealsAvoided);
    batch.note("seconds", stats.batchSeconds);
    return stats;
}

} // namespace alberta::runtime
