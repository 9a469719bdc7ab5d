#include "runtime/scheduler.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "support/check.h"

namespace alberta::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Seconds-per-cost-unit prior used before the ledger has recorded a
 * calibration (roughly 100M modelled uops per second). Only relative
 * order matters for dispatch, so the prior just needs hint-bearing
 * tasks to rank plausibly against the few keys with measured seconds.
 */
constexpr double kUncalibratedSecondsPerUnit = 1e-8;

} // namespace

Scheduler::Scheduler(Executor *executor, CostLedger *ledger,
                     obs::Tracer *tracer, obs::Registry *metrics)
    : executor_(executor), ledger_(ledger), tracer_(tracer)
{
    support::panicIf(!executor_, "scheduler: executor is required");
    if (metrics) {
        dispatchCounter_ = &metrics->counter("scheduler.dispatched");
        stealCounter_ = &metrics->counter("scheduler.steals_avoided");
    }
}

SchedulerStats
Scheduler::run(std::vector<SuiteTask> tasks)
{
    SchedulerStats stats;
    if (tasks.empty())
        return stats;

    obs::Span batch(tracer_, "suite_batch", "scheduler");
    const std::uint64_t batchId = batch.id();
    const auto start = Clock::now();

    double rate = ledger_ ? ledger_->secondsPerUnit() : 0.0;
    if (rate <= 0.0)
        rate = kUncalibratedSecondsPerUnit;

    // Longest-expected-first order. Measured ledger seconds win; keys
    // never timed fall back to their cost hint converted through the
    // calibration rate. The sort is stable, so tasks with neither
    // (expected 0.0) keep submission order and a fully cold hint-less
    // run degrades to the natural sequence.
    std::vector<double> expected(tasks.size(), 0.0);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const double known =
            ledger_ ? ledger_->expectedSeconds(tasks[i].costKey) : 0.0;
        expected[i] = known > 0.0 ? known : tasks[i].costHint * rate;
    }
    std::vector<std::size_t> order(tasks.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return expected[a] > expected[b];
                     });
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        if (order[pos] > pos)
            ++stats.stealsAvoided;
    }
    stats.dispatched = tasks.size();

    std::vector<double> taskSeconds(tasks.size(), 0.0);
    executor_->parallelFor(tasks.size(), [&](std::size_t i) {
        SuiteTask &task = tasks[order[i]];
        support::panicIf(!task.run,
                         "scheduler: task has no work: " + task.costKey);
        obs::Span span(tracer_, task.costKey, task.category, batchId);
        const auto taskStart = Clock::now();
        task.run(span);
        taskSeconds[order[i]] = secondsSince(taskStart);
    });

    double calibrationSeconds = 0.0;
    double calibrationUnits = 0.0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (ledger_)
            ledger_->record(tasks[i].costKey, taskSeconds[i]);
        if (tasks[i].costHint > 0.0) {
            calibrationSeconds += taskSeconds[i];
            calibrationUnits += tasks[i].costHint;
        }
    }

    if (dispatchCounter_) {
        dispatchCounter_->add(stats.dispatched);
        stealCounter_->add(stats.stealsAvoided);
    }
    stats.batchSeconds = secondsSince(start);
    batch.note("tasks", stats.dispatched);
    batch.note("reordered", stats.stealsAvoided);
    batch.note("seconds", stats.batchSeconds);

    if (ledger_) {
        ledger_->recordCalibration(calibrationSeconds,
                                   calibrationUnits);
        ledger_->save();
    }
    return stats;
}

} // namespace alberta::runtime
