/**
 * @file
 * Suite-level run scheduler: one flattened task list across every
 * (benchmark, workload) pair, dispatched as a single Executor batch in
 * longest-expected-first order.
 *
 * The per-benchmark `parallelFor` in `core::characterize` leaves the
 * pool idle at two points: the barrier at the end of each benchmark's
 * small batch, and the serialized refrate repetitions between batches.
 * The scheduler removes both by collecting *all* model runs — refrate
 * repetitions included — into one global batch. Task order within the
 * batch comes from a CostLedger of previously measured run times,
 * longest first, so the slowest tasks start earliest and the batch
 * tail is short; tasks the ledger cannot estimate keep submission
 * order (stable sort). Callers gather results into pre-sized slots,
 * so model outputs are bit-identical to serial execution regardless
 * of the dispatch order.
 */
#ifndef ALBERTA_RUNTIME_SCHEDULER_H
#define ALBERTA_RUNTIME_SCHEDULER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "runtime/cost_ledger.h"
#include "runtime/executor.h"

namespace alberta::runtime {

/** One schedulable unit of suite work. */
struct SuiteTask
{
    /** Ledger key (and span name), e.g. "505.mcf_r/refrate". */
    std::string costKey;
    /** Span category, e.g. "model_run" or "refrate_rep". */
    std::string category = "model_run";
    /** The work; the span is this task's (inactive when untraced). */
    std::function<void(obs::Span &span)> run;
    /**
     * Abstract cost units (estimated retired uops, from
     * Benchmark::costHint) used to order the task when the ledger has
     * no measured seconds for its key. Converted to seconds through
     * the ledger's persisted calibration rate; 0.0 means unknown.
     */
    double costHint = 0.0;
};

/** What one scheduled batch did. */
struct SchedulerStats
{
    std::uint64_t dispatched = 0; //!< tasks handed to the executor
    /**
     * Tasks the ledger promoted ahead of their submission position —
     * long tasks that would otherwise have been picked up late and
     * left the pool draining behind one straggler.
     */
    std::uint64_t stealsAvoided = 0;
    double batchSeconds = 0.0;  //!< wall time of the whole batch
};

/**
 * Longest-expected-first dispatcher over a shared Executor.
 *
 * Measured run times are recorded back into the ledger (and the
 * ledger saved) after every batch, so estimates improve run over run
 * and persist across processes when the ledger has a path. A task's
 * expected cost is its ledger seconds when measured before, else its
 * `costHint` converted through the ledger's calibrated seconds-per-
 * unit rate — so a completely cold ledger still dispatches the big
 * refrate runs first instead of wherever submission order put them.
 */
class Scheduler
{
  public:
    explicit Scheduler(Executor *executor,
                       CostLedger *ledger = nullptr,
                       obs::Tracer *tracer = nullptr,
                       obs::Registry *metrics = nullptr);

    /**
     * Dispatch @p tasks as one batch and block until all complete.
     * Bumps the `scheduler.dispatched` / `scheduler.steals_avoided`
     * counters when a metrics registry is attached.
     */
    SchedulerStats run(std::vector<SuiteTask> tasks);

  private:
    Executor *executor_;
    CostLedger *ledger_;
    obs::Tracer *tracer_;
    obs::Counter *dispatchCounter_ = nullptr;
    obs::Counter *stealCounter_ = nullptr;
};

} // namespace alberta::runtime

#endif // ALBERTA_RUNTIME_SCHEDULER_H
