/**
 * @file
 * Fixed-size thread-pool executor for (benchmark, workload) model runs.
 *
 * The characterization pipeline is embarrassingly parallel: every model
 * run owns a fresh ExecutionContext, so tasks share no mutable state and
 * the executor only has to distribute indices.
 * Results are always gathered in submission order, which keeps parallel
 * characterizations bit-identical to the serial path.
 */
#ifndef ALBERTA_RUNTIME_EXECUTOR_H
#define ALBERTA_RUNTIME_EXECUTOR_H

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace alberta::obs {
class Counter;
class Histogram;
class Registry;
class Tracer;
} // namespace alberta::obs

namespace alberta::runtime {

/**
 * A fixed-size worker pool with a blocking `parallelFor`.
 *
 * With `jobs == 1` no threads are created and bodies run inline on the
 * calling thread, so the serial path stays exactly the serial path.
 * Nested `parallelFor` calls from worker threads degrade to inline
 * execution instead of deadlocking.
 */
class Executor
{
  public:
    /**
     * @param jobs worker count; values <= 0 resolve to @ref defaultJobs.
     */
    explicit Executor(int jobs = 0);
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /** Resolved worker count (>= 1). */
    int jobs() const { return jobs_; }

    /**
     * Run `body(i)` for every `i` in `[0, count)` and block until all
     * complete. Bodies may run on any worker in any order; callers must
     * index into pre-sized result slots to keep gathering deterministic.
     * The first exception thrown by a body is rethrown here after the
     * batch drains.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

    /**
     * Attach observability (non-owning; pass nullptrs to detach).
     * When attached, every `parallelFor` batch opens one span
     * (category "executor") and bumps the `executor.batches` /
     * `executor.tasks` counters, and every task records its submit ->
     * start wait and its run time in the `executor.queue_seconds` /
     * `executor.run_seconds` histograms (an inline task waits 0 s).
     * Detached, the hooks cost one branch.
     */
    void attachObservability(obs::Tracer *tracer,
                             obs::Registry *metrics);

    /**
     * Default worker count: the `ALBERTA_JOBS` environment variable when
     * set to a positive integer, otherwise the hardware concurrency
     * (minimum 1).
     */
    static int defaultJobs();

  private:
    struct Task;

    void workerLoop();
    void runTask(Task &task);

    int jobs_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::queue<Task> queue_;
    bool stopping_ = false;

    obs::Tracer *tracer_ = nullptr;
    obs::Counter *batchCounter_ = nullptr;
    obs::Counter *taskCounter_ = nullptr;
    obs::Histogram *queueSeconds_ = nullptr;
    obs::Histogram *runSeconds_ = nullptr;
};

} // namespace alberta::runtime

#endif // ALBERTA_RUNTIME_EXECUTOR_H
