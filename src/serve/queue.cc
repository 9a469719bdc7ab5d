#include "serve/queue.h"

#include <chrono>

namespace alberta::serve {

namespace {

std::uint64_t
steadyNowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

RequestQueue::RequestQueue(std::size_t capacity, ClockFn clock)
    : capacity_(capacity == 0 ? 1 : capacity),
      clock_(clock ? std::move(clock) : ClockFn(&steadyNowMs))
{
}

bool
RequestQueue::push(QueueJob job)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (closed_)
            return false;
        if (size_ >= capacity_) {
            ++rejected_;
            return false;
        }
        job.admitMs = clock_();
        Lane &lane = lanes_[job.client];
        if (lane.jobs.empty() && !lane.pinned)
            rotation_.push_back(job.client);
        lane.jobs.push_back(std::move(job));
        ++size_;
    }
    cv_.notify_one();
    return true;
}

bool
RequestQueue::pop(QueueJob *out)
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
        return !rotation_.empty() || (closed_ && size_ == 0);
    });
    if (rotation_.empty())
        return false; // closed and drained
    const std::uint64_t client = rotation_.front();
    rotation_.pop_front();
    Lane &lane = lanes_[client];
    *out = std::move(lane.jobs.front());
    lane.jobs.pop_front();
    lane.pinned = true; // ineligible until finish(client)
    --size_;
    const std::uint64_t now = clock_();
    out->waitedMs = now >= out->admitMs ? now - out->admitMs : 0;
    out->expired =
        out->deadlineMs > 0 && out->waitedMs > out->deadlineMs;
    if (out->expired)
        ++expired_;
    if (waitSamplesMs_.size() < kMaxWaitSamples)
        waitSamplesMs_.push_back(static_cast<double>(out->waitedMs));
    return true;
}

void
RequestQueue::finish(std::uint64_t client)
{
    bool wake = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = lanes_.find(client);
        if (it == lanes_.end() || !it->second.pinned)
            return; // tolerated: finish() without a pinned pop
        it->second.pinned = false;
        if (it->second.jobs.empty()) {
            lanes_.erase(it);
            // The drain may now be complete; closed waiters must
            // re-check their exit condition.
            wake = closed_;
        } else {
            rotation_.push_back(client);
            wake = true;
        }
    }
    if (wake)
        cv_.notify_all();
}

void
RequestQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }
    cv_.notify_all();
}

bool
RequestQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
}

std::size_t
RequestQueue::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
}

std::uint64_t
RequestQueue::rejected() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return rejected_;
}

std::uint64_t
RequestQueue::expired() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return expired_;
}

std::vector<double>
RequestQueue::takeWaitSamplesMs()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    out.swap(waitSamplesMs_);
    return out;
}

} // namespace alberta::serve
