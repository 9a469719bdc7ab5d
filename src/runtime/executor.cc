#include "runtime/executor.h"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>

#include "obs/obs.h"

namespace alberta::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** True on threads owned by some executor (guards nested parallelFor). */
thread_local bool tlsInsideWorker = false;

/** Shared completion state of one parallelFor call. */
struct Batch
{
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining = 0;
    std::exception_ptr error;

    void
    finishOne(std::exception_ptr e)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (e && !error)
            error = std::move(e);
        if (--remaining == 0)
            done.notify_all();
    }
};

} // namespace

struct Executor::Task
{
    std::shared_ptr<Batch> batch;
    std::function<void(std::size_t)> const *body = nullptr;
    std::size_t index = 0;
    Clock::time_point submitted;
};

Executor::Executor(int jobs)
    : jobs_(jobs > 0 ? jobs : defaultJobs())
{
    if (jobs_ <= 1)
        return;
    workers_.reserve(jobs_);
    for (int i = 0; i < jobs_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

Executor::~Executor()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

int
Executor::defaultJobs()
{
    if (const char *env = std::getenv("ALBERTA_JOBS")) {
        const int parsed = std::atoi(env);
        if (parsed > 0)
            return parsed;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

void
Executor::runTask(Task &task)
{
    const double waited = secondsSince(task.submitted);
    const auto start = Clock::now();
    std::exception_ptr error;
    try {
        (*task.body)(task.index);
    } catch (...) {
        error = std::current_exception();
    }
    if (runSeconds_) {
        queueSeconds_->record(waited);
        runSeconds_->record(secondsSince(start));
    }
    task.batch->finishOne(std::move(error));
}

void
Executor::workerLoop()
{
    tlsInsideWorker = true;
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping, queue drained
            task = std::move(queue_.front());
            queue_.pop();
        }
        runTask(task);
    }
}

void
Executor::attachObservability(obs::Tracer *tracer,
                              obs::Registry *metrics)
{
    tracer_ = tracer;
    batchCounter_ =
        metrics ? &metrics->counter("executor.batches") : nullptr;
    taskCounter_ =
        metrics ? &metrics->counter("executor.tasks") : nullptr;
    queueSeconds_ = metrics
                        ? &metrics->histogram("executor.queue_seconds")
                        : nullptr;
    runSeconds_ =
        metrics ? &metrics->histogram("executor.run_seconds") : nullptr;
}

void
Executor::parallelFor(std::size_t count,
                      const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;

    obs::Span span(tracer_, "parallel_for", "executor");
    span.note("tasks", static_cast<std::uint64_t>(count));
    if (batchCounter_) {
        batchCounter_->add(1);
        taskCounter_->add(count);
    }

    // Serial executors and nested calls from worker threads run inline;
    // their tasks are still timed, with no queue wait.
    if (jobs_ <= 1 || tlsInsideWorker || count == 1) {
        for (std::size_t i = 0; i < count; ++i) {
            const auto start = Clock::now();
            body(i);
            if (runSeconds_) {
                queueSeconds_->record(0.0);
                runSeconds_->record(secondsSince(start));
            }
        }
        return;
    }

    auto batch = std::make_shared<Batch>();
    batch->remaining = count;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < count; ++i) {
            Task task;
            task.batch = batch;
            task.body = &body;
            task.index = i;
            task.submitted = Clock::now();
            queue_.push(std::move(task));
        }
    }
    wake_.notify_all();

    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->done.wait(lock, [&] { return batch->remaining == 0; });
    if (batch->error)
        std::rethrow_exception(batch->error);
}

} // namespace alberta::runtime
