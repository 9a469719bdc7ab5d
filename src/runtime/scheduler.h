/**
 * @file
 * Suite-level run scheduler: one flattened task list across every
 * (benchmark, workload) pair, dispatched as a single Executor batch in
 * longest-expected-first order.
 *
 * Every characterization — one benchmark or the whole suite — collects
 * all of its model runs, refrate repetitions included, into one batch,
 * so the pool never drains at a per-benchmark barrier. Tasks are
 * stable-sorted by their cost hint, descending, so the slowest runs
 * start earliest and the batch tail is short; hintless tasks keep
 * submission order. Callers gather results into pre-sized slots, so
 * model outputs are bit-identical to serial execution regardless of
 * the dispatch order.
 */
#ifndef ALBERTA_RUNTIME_SCHEDULER_H
#define ALBERTA_RUNTIME_SCHEDULER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "runtime/executor.h"

namespace alberta::runtime {

/** One schedulable unit of suite work. */
struct SuiteTask
{
    /** Span name, e.g. "505.mcf_r/refrate". */
    std::string name;
    /** Span category, e.g. "model_run" or "refrate_rep". */
    std::string category = "model_run";
    /** The work; the span is this task's (inactive when untraced). */
    std::function<void(obs::Span &span)> run;
    /**
     * Abstract cost units (estimated retired uops, from
     * Benchmark::costHint) that order the batch, largest first;
     * 0.0 means unknown.
     */
    double costHint = 0.0;
};

/** What one scheduled batch did. */
struct SchedulerStats
{
    std::uint64_t dispatched = 0; //!< tasks handed to the executor
    /**
     * Tasks the hint order promoted ahead of their submission
     * position — long tasks that would otherwise have been picked up
     * late and left the pool draining behind one straggler.
     */
    std::uint64_t stealsAvoided = 0;
    double batchSeconds = 0.0;  //!< wall time of the whole batch
};

/** Longest-hint-first dispatcher over a shared Executor. */
class Scheduler
{
  public:
    explicit Scheduler(Executor &executor,
                       obs::Tracer *tracer = nullptr,
                       obs::Registry *metrics = nullptr);

    /**
     * Dispatch @p tasks as one batch and block until all complete.
     * Bumps the `scheduler.dispatched` / `scheduler.steals_avoided`
     * counters when a metrics registry is attached.
     */
    SchedulerStats run(std::vector<SuiteTask> tasks);

  private:
    Executor &executor_;
    obs::Tracer *tracer_;
    obs::Counter *dispatchCounter_ = nullptr;
    obs::Counter *stealCounter_ = nullptr;
};

} // namespace alberta::runtime

#endif // ALBERTA_RUNTIME_SCHEDULER_H
