/**
 * @file
 * The daemon's admission-controlled request queue.
 *
 * Run requests from every connected client land here; a *pool* of
 * dispatcher threads drains the queue through the shared
 * runtime::Engine. Four properties matter and all live in this class:
 *
 *  - **Admission control**: the queue is bounded. push() never
 *    blocks — when the queue is full (or draining) it returns false
 *    and the server answers the client with an error immediately,
 *    instead of letting a flood of suite requests build unbounded
 *    memory and latency.
 *
 *  - **Per-client FIFO via lane pinning**: each client has its own
 *    lane. pop() *pins* the lane it takes a job from, and the lane
 *    stays ineligible until the dispatcher calls finish() — after it
 *    has sent the response. At most one job per client is ever in
 *    flight, so a client's responses come back in exactly the order
 *    it sent the requests, structurally, no matter how many
 *    dispatchers run concurrently. Distinct clients execute in
 *    parallel.
 *
 *  - **Fairness rotation**: eligible lanes are held in a
 *    round-robin rotation ring. pop() serves the lane at the front
 *    (the one that has waited longest), and a served lane rejoins at
 *    the back once finished, so one chatty client cannot starve
 *    another.
 *
 *  - **Deadlines**: jobs are stamped with the admission time. When
 *    pop() hands out a job whose queue wait already exceeds its
 *    deadline_ms, the job is marked expired; the dispatcher answers
 *    it with a structured `deadline_exceeded` error (in lane order,
 *    keeping per-client FIFO) instead of executing it.
 *
 * close() stops admission; pop() keeps delivering queued jobs until
 * every lane is drained *and* unpinned, then returns false — the
 * dispatchers' exit condition.
 */
#ifndef ALBERTA_SERVE_QUEUE_H
#define ALBERTA_SERVE_QUEUE_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/request.h"

namespace alberta::serve {

class Connection; // defined in server.cc; jobs only carry the handle

/** One admitted run request: who asked, what to run, where to
 * answer. `connection` may be null in unit tests. */
struct QueueJob
{
    std::uint64_t client = 0; //!< connection id (lane key)
    std::uint64_t wireId = 0; //!< client-chosen request id, echoed
    core::RunRequest request;
    std::shared_ptr<Connection> connection;
    std::uint64_t admitMs = 0;     //!< stamped by push()
    std::uint64_t waitedMs = 0;    //!< stamped by pop()
    bool expired = false;          //!< stamped by pop(): answer with
                                   //!< deadline_exceeded, don't run
};

/** Bounded multi-producer *multi-consumer* queue with per-client
 * FIFO lanes, lane pinning, round-robin rotation, and queue
 * deadlines (see file comment). */
class RequestQueue
{
  public:
    /** Millisecond monotonic clock; injectable so the deterministic
     * stress tests can drive deadlines from a fake clock. */
    using ClockFn = std::function<std::uint64_t()>;

    explicit RequestQueue(std::size_t capacity, ClockFn clock = {});

    /**
     * Admit @p job. Returns false — without blocking — when the
     * queue is at capacity or closed; the caller answers the client
     * with a rejection. Stamps the admission time.
     */
    bool push(QueueJob job);

    /**
     * Take the next job, blocking while the queue is open and no
     * lane is eligible (empty, or every non-empty lane is pinned by
     * another dispatcher). Pins the chosen lane — the caller MUST
     * call finish() with the job's client id after sending the
     * response. Stamps waitedMs and the expired flag. Returns false
     * once the queue is closed *and* fully drained.
     */
    bool pop(QueueJob *out);

    /** Unpin @p client's lane after its in-flight job was answered;
     * the lane (if non-empty) rejoins the rotation at the back. */
    void finish(std::uint64_t client);

    /** Stop admitting (push() returns false); pop() keeps returning
     * queued jobs until the queue is empty, then returns false. */
    void close();

    bool closed() const;
    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }
    /** Pushes refused because the queue was full (not closed). */
    std::uint64_t rejected() const;
    /** Jobs handed out already past their deadline. */
    std::uint64_t expired() const;

    /** pop() keeps at most this many wait samples between takes, so
     * a daemon nobody drains does not grow per request. */
    static constexpr std::size_t kMaxWaitSamples = 65536;

    /** Drain the queue-wait samples (ms) recorded by pop() since the
     * last call (the first @ref kMaxWaitSamples of them) — the bench
     * harness's latency source. */
    std::vector<double> takeWaitSamplesMs();

  private:
    struct Lane
    {
        std::deque<QueueJob> jobs;
        bool pinned = false; //!< a dispatcher is serving this client
    };

    const std::size_t capacity_;
    const ClockFn clock_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    bool closed_ = false;
    std::size_t size_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t expired_ = 0;
    std::map<std::uint64_t, Lane> lanes_;
    /** Clients that are non-empty and unpinned, oldest first. */
    std::deque<std::uint64_t> rotation_;
    std::vector<double> waitSamplesMs_;
};

} // namespace alberta::serve

#endif // ALBERTA_SERVE_QUEUE_H
