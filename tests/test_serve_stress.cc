/** @file
 * RequestQueue stress tests backing the dispatcher pool.
 *
 * Two layers:
 *
 *  1. A **deterministic schedule** — a seeded random op sequence
 *     (pushes from hundreds of clients with mixed deadlines, clock
 *     advances, pops, admission rejects, a closing drain) applied single-threaded to the real queue under an
 *     injected fake clock AND to an independent straight-line
 *     reference model. Every popped (client, wireId, expired) tuple,
 *     every admission verdict, and the final counters must agree —
 *     the selection policy (round-robin rotation, per-client FIFO,
 *     deadline expiry at pop) is pinned exactly.
 *
 *  2. A **true MPMC stress** — producer threads pipelining hundreds
 *     of jobs across many clients against a dispatcher-pool's worth
 *     of consumer threads. Global invariants checked: every accepted
 *     job is popped exactly once, each client's pops happen in push
 *     order, and lane pinning holds (at most one job per client in
 *     flight, asserted with per-client atomic flags flipped at pop
 *     and finish). Run under TSan by scripts/check_sanitize.sh.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/queue.h"
#include "support/rng.h"

namespace {

using namespace alberta;

// --- layer 1: deterministic schedule vs. reference model --------------

/** Straight-line re-statement of the queue's contract, kept
 * deliberately naive (linear scans, no pinning — the schedule calls
 * pop and finish back to back). */
class ReferenceModel
{
  public:
    explicit ReferenceModel(std::size_t capacity)
        : capacity_(capacity)
    {
    }

    bool
    push(std::uint64_t client, std::uint64_t wireId,
         std::uint64_t deadlineMs, std::uint64_t now)
    {
        if (closed_)
            return false;
        if (size_ >= capacity_) {
            ++rejected_;
            return false;
        }
        if (lanes_[client].empty())
            rotation_.push_back(client);
        lanes_[client].push_back({wireId, deadlineMs, now});
        ++size_;
        return true;
    }

    /** Pop-and-finish combined; false when nothing is queued. */
    bool
    pop(std::uint64_t now, std::uint64_t *client,
        std::uint64_t *wireId, bool *expired)
    {
        if (rotation_.empty())
            return false;
        *client = rotation_.front();
        rotation_.pop_front();
        auto &lane = lanes_[*client];
        const Job job = lane.front();
        lane.pop_front();
        --size_;
        if (lane.empty())
            lanes_.erase(*client);
        else
            rotation_.push_back(*client);
        *wireId = job.wireId;
        const std::uint64_t waited = now - job.admitMs;
        *expired = job.deadlineMs > 0 && waited > job.deadlineMs;
        if (*expired)
            ++expired_;
        return true;
    }

    void close() { closed_ = true; }
    std::size_t size() const { return size_; }
    std::uint64_t rejected() const { return rejected_; }
    std::uint64_t expired() const { return expired_; }

  private:
    struct Job
    {
        std::uint64_t wireId;
        std::uint64_t deadlineMs;
        std::uint64_t admitMs;
    };

    const std::size_t capacity_;
    bool closed_ = false;
    std::size_t size_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t expired_ = 0;
    std::map<std::uint64_t, std::deque<Job>> lanes_;
    std::deque<std::uint64_t> rotation_;
};

struct Popped
{
    std::uint64_t client;
    std::uint64_t wireId;
    bool expired;

    bool
    operator==(const Popped &other) const
    {
        return client == other.client && wireId == other.wireId &&
               expired == other.expired;
    }

    bool
    operator!=(const Popped &other) const
    {
        return !(*this == other);
    }
};

/** Run one seeded schedule through both implementations and compare
 * every observable. */
void
runSchedule(std::uint64_t seed)
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    constexpr std::size_t kCapacity = 48;
    constexpr int kClients = 300;
    constexpr int kOps = 6000;

    std::uint64_t now = 0;
    serve::RequestQueue queue(kCapacity, [&now] { return now; });
    ReferenceModel model(kCapacity);
    support::Rng rng(seed);

    std::vector<Popped> realOrder, modelOrder;
    std::uint64_t nextWireId = 1;
    const auto popBoth = [&] {
        // The real queue's pop would block when nothing is eligible;
        // in this single-threaded schedule "eligible" is just
        // non-empty (pop and finish run back to back).
        if (queue.size() == 0)
            return;
        serve::QueueJob out;
        ASSERT_TRUE(queue.pop(&out));
        queue.finish(out.client);
        realOrder.push_back({out.client, out.wireId, out.expired});
        Popped ref{};
        ASSERT_TRUE(
            model.pop(now, &ref.client, &ref.wireId, &ref.expired));
        modelOrder.push_back(ref);
    };

    for (int op = 0; op < kOps; ++op) {
        const std::uint64_t draw = rng.below(100);
        if (draw < 55) { // push
            serve::QueueJob j;
            j.client = 1 + rng.below(kClients);
            j.wireId = nextWireId++;
            j.deadlineMs =
                rng.chance(0.3) ? 1 + rng.below(40) : 0;
            const bool refAccepted =
                model.push(j.client, j.wireId, j.deadlineMs, now);
            EXPECT_EQ(queue.push(j), refAccepted);
        } else if (draw < 90) { // pop (if anything is queued)
            popBoth();
        } else { // time passes while jobs queue
            now += rng.below(25);
        }
    }

    // Closing drain: everything still queued comes out, identically.
    queue.close();
    model.close();
    EXPECT_FALSE(queue.push(serve::QueueJob{}));
    while (queue.size() > 0)
        popBoth();
    serve::QueueJob leftover;
    EXPECT_FALSE(queue.pop(&leftover));

    ASSERT_EQ(realOrder.size(), modelOrder.size());
    for (std::size_t i = 0; i < realOrder.size(); ++i) {
        EXPECT_TRUE(realOrder[i] == modelOrder[i])
            << "divergence at pop " << i << ": real ("
            << realOrder[i].client << ", " << realOrder[i].wireId
            << ", " << realOrder[i].expired << ") vs model ("
            << modelOrder[i].client << ", " << modelOrder[i].wireId
            << ", " << modelOrder[i].expired << ")";
        if (realOrder[i] != modelOrder[i])
            break; // one divergence floods the log; stop at the first
    }
    EXPECT_EQ(queue.rejected(), model.rejected());
    EXPECT_EQ(queue.expired(), model.expired());
    EXPECT_EQ(queue.takeWaitSamplesMs().size(), realOrder.size());
}

TEST(ServeStress, DeterministicSchedulesMatchTheReferenceModel)
{
    // Several seeds: the interesting interleavings (full queue,
    // expiring deadlines, drain with queued work)
    // all occur within each schedule.
    for (const std::uint64_t seed : {1ULL, 42ULL, 0xa1be27aULL})
        runSchedule(seed);
}

// --- layer 2: true multi-producer multi-consumer stress ---------------

TEST(ServeStress, MpmcPreservesPerClientFifoAndLanePinning)
{
    constexpr int kProducers = 4;
    constexpr int kClientsPerProducer = 8;
    constexpr int kJobsPerClient = 120;
    constexpr int kConsumers = 4;
    constexpr int kClients = kProducers * kClientsPerProducer;
    serve::RequestQueue queue(32);

    // Per-client ground truth and observations. Producers own
    // `pushed` for their clients; the queue's lane pinning means at
    // most one consumer touches a client's `popped` at a time — the
    // inFlight flags assert exactly that.
    std::vector<std::vector<std::uint64_t>> pushed(kClients + 1);
    std::vector<std::vector<std::uint64_t>> popped(kClients + 1);
    std::vector<std::atomic<bool>> inFlight(kClients + 1);
    std::atomic<int> pinningViolations{0};

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            support::Rng rng(0x5eed + p);
            for (int i = 0; i < kJobsPerClient; ++i) {
                for (int c = 0; c < kClientsPerProducer; ++c) {
                    const std::uint64_t client = static_cast<
                        std::uint64_t>(p * kClientsPerProducer + c +
                                       1);
                    serve::QueueJob j;
                    j.client = client;
                    j.wireId = static_cast<std::uint64_t>(i + 1);
                    j.deadlineMs = rng.chance(0.1) ? 1 : 0;
                    // Bounded queue: spin until admitted so every
                    // job is accounted for in the FIFO check.
                    while (!queue.push(j))
                        std::this_thread::yield();
                    pushed[client].push_back(j.wireId);
                }
            }
        });
    }

    std::vector<std::thread> consumers;
    for (int d = 0; d < kConsumers; ++d) {
        consumers.emplace_back([&] {
            serve::QueueJob job;
            while (queue.pop(&job)) {
                // Lane pinning: no other consumer may hold a job for
                // this client right now.
                if (inFlight[job.client].exchange(true))
                    pinningViolations.fetch_add(1);
                popped[job.client].push_back(job.wireId);
                std::this_thread::yield(); // widen the race window
                inFlight[job.client].store(false);
                queue.finish(job.client);
            }
        });
    }

    for (auto &producer : producers)
        producer.join();
    queue.close();
    for (auto &consumer : consumers)
        consumer.join();

    EXPECT_EQ(pinningViolations.load(), 0);
    EXPECT_EQ(queue.size(), 0u);
    for (int c = 1; c <= kClients; ++c) {
        ASSERT_EQ(pushed[c].size(),
                  static_cast<std::size_t>(kJobsPerClient));
        // Exactly once, in push order — expired jobs included (they
        // are answered, not dropped).
        EXPECT_EQ(popped[c], pushed[c]) << "client " << c;
    }
}

} // namespace
