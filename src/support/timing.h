/**
 * @file
 * Thread CPU-time measurement. Untimed model runs are pure CPU
 * work; charging them thread CPU seconds instead of wall
 * seconds keeps per-run costs meaningful when a pool oversubscribes
 * the cores — wall time would charge a task for every deschedule
 * while its siblings ran. Wall-clock timing stays the right tool for
 * end-to-end latencies (refrate repetitions, batch seconds).
 */
#ifndef ALBERTA_SUPPORT_TIMING_H
#define ALBERTA_SUPPORT_TIMING_H

#include <ctime>

#include <chrono>

namespace alberta::support {

/** CPU seconds consumed by the calling thread, monotone within the
 * thread. Falls back to steady wall time where the per-thread clock
 * is unavailable. */
inline double
threadCpuSeconds()
{
    ::timespec ts{};
    if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace alberta::support

#endif // ALBERTA_SUPPORT_TIMING_H
