#include "runtime/scheduler.h"

#include <algorithm>
#include <numeric>

#include "support/check.h"

namespace alberta::runtime {

Scheduler::Scheduler(Executor &executor, obs::Tracer *tracer,
                     obs::Registry *metrics)
    : executor_(executor), tracer_(tracer)
{
    if (metrics)
        reordered_ = &metrics->counter("scheduler.reordered");
}

void
Scheduler::run(std::vector<SuiteTask> tasks)
{
    if (tasks.empty())
        return;

    obs::Span batch(tracer_, "suite_batch", "scheduler");
    const std::uint64_t batchId = batch.id();

    // Longest-hint-first order. The sort is stable, so tasks with
    // equal hints — hintless ones included — keep submission order.
    std::vector<std::size_t> order(tasks.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return tasks[a].costHint > tasks[b].costHint;
                     });
    std::uint64_t reordered = 0;
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        if (order[pos] > pos)
            ++reordered;
    }

    executor_.parallelFor(tasks.size(), [&](std::size_t i) {
        SuiteTask &task = tasks[order[i]];
        support::panicIf(!task.run,
                         "scheduler: task has no work: " + task.name);
        obs::Span span(tracer_, task.name, task.category, batchId);
        task.run(span);
    });

    if (reordered_)
        reordered_->add(reordered);
    batch.note("tasks", static_cast<std::uint64_t>(tasks.size()));
    batch.note("reordered", reordered);
}

} // namespace alberta::runtime
