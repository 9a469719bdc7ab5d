/**
 * @file
 * Tests for the parallel execution engine: Executor correctness, the
 * headline serial-vs-parallel bit-identity guarantee of the
 * characterization pipeline, and ResultCache memoization.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "core/suite.h"
#include "runtime/engine.h"
#include "runtime/executor.h"
#include "runtime/result_cache.h"

namespace {

using namespace alberta;

TEST(Executor, ResolvesJobCounts)
{
    EXPECT_GE(runtime::Executor::defaultJobs(), 1);
    runtime::Executor serial(1);
    EXPECT_EQ(serial.jobs(), 1);
    runtime::Executor pool(4);
    EXPECT_EQ(pool.jobs(), 4);
    runtime::Executor automatic(0);
    EXPECT_GE(automatic.jobs(), 1);
}

TEST(Executor, DefaultJobsReadsEnvironment)
{
    ::setenv("ALBERTA_JOBS", "3", 1);
    EXPECT_EQ(runtime::Executor::defaultJobs(), 3);
    ::setenv("ALBERTA_JOBS", "garbage", 1);
    EXPECT_GE(runtime::Executor::defaultJobs(), 1);
    ::unsetenv("ALBERTA_JOBS");
}

TEST(Executor, ParallelForCoversEveryIndexOnce)
{
    for (const int jobs : {1, 2, 8}) {
        runtime::Executor executor(jobs);
        std::vector<std::atomic<int>> touched(100);
        executor.parallelFor(touched.size(), [&](std::size_t i) {
            touched[i].fetch_add(1);
        });
        for (const auto &count : touched)
            EXPECT_EQ(count.load(), 1);
        const auto stats = executor.stats();
        EXPECT_EQ(stats.tasksRun, 100u);
        EXPECT_GE(stats.runSeconds, 0.0);
    }
}

TEST(Executor, PropagatesBodyExceptions)
{
    runtime::Executor executor(4);
    EXPECT_THROW(executor.parallelFor(
                     16,
                     [](std::size_t i) {
                         if (i == 7)
                             throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    // The pool survives a throwing batch.
    std::atomic<int> ran{0};
    executor.parallelFor(8, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
}

TEST(Executor, NestedParallelForRunsInline)
{
    runtime::Executor executor(2);
    std::atomic<int> inner{0};
    executor.parallelFor(4, [&](std::size_t) {
        executor.parallelFor(4,
                             [&](std::size_t) { inner.fetch_add(1); });
    });
    EXPECT_EQ(inner.load(), 16);
}

bool
bitIdentical(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/** Everything deterministic must match bit-for-bit. */
void
expectSameModelOutputs(const core::Characterization &a,
                       const core::Characterization &b)
{
    ASSERT_EQ(a.workloadNames, b.workloadNames);
    EXPECT_EQ(a.checksumPerWorkload, b.checksumPerWorkload);
    ASSERT_EQ(a.topdownPerWorkload.size(), b.topdownPerWorkload.size());
    for (std::size_t i = 0; i < a.topdownPerWorkload.size(); ++i) {
        const auto x = a.topdownPerWorkload[i].asArray();
        const auto y = b.topdownPerWorkload[i].asArray();
        for (std::size_t k = 0; k < x.size(); ++k)
            EXPECT_TRUE(bitIdentical(x[k], y[k]))
                << a.benchmark << " workload " << a.workloadNames[i]
                << " ratio " << k;
    }
    EXPECT_EQ(a.coveragePerWorkload, b.coveragePerWorkload);
    EXPECT_TRUE(bitIdentical(a.topdown.muGV, b.topdown.muGV));
    EXPECT_TRUE(bitIdentical(a.coverage.muGM, b.coverage.muGM));
}

/** The headline guarantee: thread count never changes model outputs. */
TEST(ExecutorDeterminism, SerialAndParallelCharacterizationsMatch)
{
    for (const char *name :
         {"505.mcf_r", "523.xalancbmk_r", "511.povray_r"}) {
        const auto bm = core::makeBenchmark(name);
        core::RunRequest serial;
        serial.refrateRepetitions = 1;
        runtime::Engine serialEngine(1);
        const auto base = core::characterize(*bm, serial, serialEngine);

        for (const int jobs : {1, 2, 8}) {
            runtime::Engine engine(jobs);
            core::RunRequest request;
            request.refrateRepetitions = 1;
            const auto parallel =
                core::characterize(*bm, request, engine);
            expectSameModelOutputs(base, parallel);
        }
    }
}

TEST(ResultCache, FingerprintTracksWorkloadContent)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    auto workloads = bm->workloads();
    ASSERT_FALSE(workloads.empty());
    runtime::Workload w = workloads.front();

    const std::uint64_t original =
        runtime::ResultCache::fingerprint(*bm, w);
    EXPECT_EQ(runtime::ResultCache::fingerprint(*bm, w), original);

    runtime::Workload reseeded = w;
    reseeded.seed ^= 1;
    EXPECT_NE(runtime::ResultCache::fingerprint(*bm, reseeded),
              original);

    runtime::Workload reparam = w;
    reparam.params.set("extra_knob", static_cast<long long>(1));
    EXPECT_NE(runtime::ResultCache::fingerprint(*bm, reparam),
              original);
}

TEST(ResultCache, StaleEntryMissesAfterContentChange)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    runtime::Workload w = bm->workloads().front();
    runtime::ResultCache cache;

    const auto first = runtime::measureCached(*bm, w, &cache);
    EXPECT_EQ(cache.misses(), 1u);
    const auto again = runtime::measureCached(*bm, w, &cache);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(first.checksum, again.checksum);

    w.seed ^= 0xbeef;
    runtime::CachedRun out;
    EXPECT_FALSE(cache.lookup(*bm, w, &out));
}

TEST(ResultCache, RecharacterizationIsFullyMemoized)
{
    const auto bm = core::makeBenchmark("523.xalancbmk_r");
    runtime::Engine engine(2);
    core::RunRequest request;
    request.refrateRepetitions = 2;

    const auto cold = core::characterize(*bm, request, engine);
    const auto &cache = engine.cache();
    const std::uint64_t coldMisses = cache.misses();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(coldMisses, cold.workloadNames.size());
    EXPECT_EQ(cache.size(), cold.workloadNames.size());

    const auto warm = core::characterize(*bm, request, engine);
    EXPECT_EQ(cache.misses(), coldMisses); // no recomputation
    EXPECT_EQ(cache.hits(), warm.workloadNames.size());

    expectSameModelOutputs(cold, warm);
    // Memoized refrate timings are replayed, not re-measured.
    EXPECT_EQ(cold.refrateRuns, warm.refrateRuns);
    EXPECT_EQ(cold.refrateSeconds, warm.refrateSeconds);
}

TEST(RunRequest, StatsAccumulateAcrossRuns)
{
    const auto bm = core::makeBenchmark("511.povray_r");
    runtime::Engine engine(2);
    core::RunRequest request;
    request.refrateRepetitions = 1;

    const auto c = core::characterize(*bm, request, engine);
    // stats() is a locked snapshot; re-fetch after each run.
    const auto cold = engine.stats();
    // Every untimed workload is one pool task, and so is every timed
    // refrate repetition.
    EXPECT_EQ(cold.tasksRun, c.workloadNames.size() - 1 +
                                 request.refrateRepetitions);
    EXPECT_EQ(cold.cacheMisses, c.workloadNames.size());
    EXPECT_EQ(cold.cacheHits, 0u);

    core::characterize(*bm, request, engine);
    EXPECT_EQ(engine.stats().cacheHits, c.workloadNames.size());
}

} // namespace
