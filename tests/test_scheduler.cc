/**
 * @file
 * Tests for the suite-level scheduler: the bit-identity of
 * suite-scheduled characterizations against one-benchmark serial
 * runs, longest-hint-first dispatch order, the reorder accounting,
 * warm replay, and that a one-benchmark characterize goes through the
 * same scheduler.
 */
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/suite.h"
#include "runtime/scheduler.h"
#include "collect_sink.h"

namespace {

using namespace alberta;
using tests::CollectSink;
using tests::suiteBatchTasks;

/** An engine with @p jobs workers whose spans go to @p spans. */
runtime::Engine
tracedEngine(int jobs, CollectSink *&spans)
{
    auto sink = std::make_unique<CollectSink>();
    spans = sink.get();
    return runtime::Engine::Builder()
        .jobs(jobs)
        .traceSink(std::move(sink))
        .build();
}

bool
bitIdentical(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

void
expectSameModelOutputs(const core::Characterization &a,
                       const core::Characterization &b)
{
    ASSERT_EQ(a.benchmark, b.benchmark);
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

TEST(Scheduler, DispatchesLongestExpectedFirst)
{
    runtime::Executor executor(1); // serial: dispatch order == run order
    obs::Registry metrics;
    runtime::Scheduler scheduler(executor, nullptr, &metrics);
    std::vector<std::string> ran;
    const auto task = [&ran](const char *key, double hint) {
        runtime::SuiteTask t;
        t.name = key;
        t.costHint = hint;
        t.run = [&ran, key](obs::Span &) { ran.emplace_back(key); };
        return t;
    };
    std::vector<runtime::SuiteTask> tasks;
    tasks.push_back(task("short", 1e6));
    tasks.push_back(task("long", 5e6));
    tasks.push_back(task("medium", 2e6));
    tasks.push_back(task("unknown", 0.0));
    scheduler.run(std::move(tasks));

    // Hinted tasks sort descending; the hintless one keeps its
    // submission position at the back.
    const std::vector<std::string> expected = {"long", "medium",
                                               "short", "unknown"};
    EXPECT_EQ(ran, expected);
    // "long" (submitted 1) and "medium" (submitted 2) were both
    // promoted ahead of their submission position.
    EXPECT_EQ(metrics.counter("scheduler.reordered").value(), 2u);
}

/** Hintless tasks all tie, so the stable sort keeps submission
 * order. */
TEST(Scheduler, ColdLedgerKeepsSubmissionOrder)
{
    runtime::Executor executor(1);
    obs::Registry metrics;
    runtime::Scheduler scheduler(executor, nullptr, &metrics);
    std::vector<int> ran;
    std::vector<runtime::SuiteTask> tasks;
    for (int i = 0; i < 5; ++i) {
        runtime::SuiteTask t;
        t.name = "task" + std::to_string(i);
        t.run = [&ran, i](obs::Span &) { ran.push_back(i); };
        tasks.push_back(std::move(t));
    }
    scheduler.run(std::move(tasks));
    EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(metrics.counter("scheduler.reordered").value(), 0u);
}

/** The biggest estimated workloads go first: tasks carry uop-count
 * hints, and the scheduler orders by them alone. */
TEST(Scheduler, ColdLedgerOrdersByCostHint)
{
    runtime::Executor executor(1);
    obs::Registry metrics;
    runtime::Scheduler scheduler(executor, nullptr, &metrics);

    std::vector<std::string> ran;
    const auto task = [&ran](const char *key, double hint) {
        runtime::SuiteTask t;
        t.name = key;
        t.costHint = hint;
        t.run = [&ran, key](obs::Span &) { ran.emplace_back(key); };
        return t;
    };
    std::vector<runtime::SuiteTask> tasks;
    tasks.push_back(task("small", 1e6));
    tasks.push_back(task("huge", 100e6));
    tasks.push_back(task("hintless", 0.0));
    tasks.push_back(task("medium", 10e6));
    scheduler.run(std::move(tasks));

    const std::vector<std::string> expected = {"huge", "medium",
                                               "small", "hintless"};
    EXPECT_EQ(ran, expected);
}

/** One global longest-first batch across several benchmarks produces
 * bit-identical results to characterizing each benchmark on its own
 * on one job. */
TEST(SuiteScheduler, MatchesPerBenchmarkSerialBitForBit)
{
    const std::vector<std::string> names = {"505.mcf_r", "557.xz_r",
                                            "541.leela_r"};
    std::vector<std::unique_ptr<runtime::Benchmark>> benchmarks;
    for (const auto &name : names)
        benchmarks.push_back(core::makeBenchmark(name));

    core::RunRequest request;
    request.refrateRepetitions = 1;
    runtime::Engine serialEngine(1);
    std::vector<core::Characterization> serial;
    for (const auto &bm : benchmarks)
        serial.push_back(core::characterize(*bm, request, serialEngine));

    for (const int jobs : {1, 2, 8}) {
        CollectSink *spans = nullptr;
        runtime::Engine engine = tracedEngine(jobs, spans);
        const auto suite =
            core::characterizeSuite(benchmarks, request, engine);
        ASSERT_EQ(suite.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            expectSameModelOutputs(serial[i], suite[i]);

        // All three benchmarks went through one scheduler batch, and
        // it is the only work the pool ran.
        const auto batches = suiteBatchTasks(spans->spans());
        ASSERT_EQ(batches.size(), 1u);
        EXPECT_GT(batches[0], 0u);
        EXPECT_EQ(engine.metrics().counter("executor.tasks").value(),
                  batches[0]);
    }
}

/** A warm second suite pass replays memoized results (including the
 * refrate repetitions) and schedules only what is missing. */
TEST(SuiteScheduler, WarmRerunReplaysInsteadOfRescheduling)
{
    std::vector<std::unique_ptr<runtime::Benchmark>> benchmarks;
    benchmarks.push_back(core::makeBenchmark("557.xz_r"));

    CollectSink *spans = nullptr;
    runtime::Engine engine = tracedEngine(2, spans);
    core::RunRequest request;
    request.refrateRepetitions = 2;
    const auto cold =
        core::characterizeSuite(benchmarks, request, engine);
    const auto coldBatches = suiteBatchTasks(spans->spans());
    ASSERT_EQ(coldBatches.size(), 1u);
    // Every non-refrate workload plus the 2 refrate repetitions.
    EXPECT_EQ(coldBatches[0], (cold[0].workloadNames.size() - 1) + 2);
    EXPECT_EQ(engine.metrics().counter("executor.tasks").value(),
              coldBatches[0]);

    const auto warm =
        core::characterizeSuite(benchmarks, request, engine);
    expectSameModelOutputs(cold[0], warm[0]);
    EXPECT_EQ(cold[0].refrateRuns, warm[0].refrateRuns);
    // Refrate replayed from the cache: its repetitions were not
    // rescheduled, so the warm batch holds only the untimed workloads.
    const auto batches = suiteBatchTasks(spans->spans());
    ASSERT_EQ(batches.size(), 2u);
    EXPECT_EQ(batches[1], cold[0].workloadNames.size() - 1);
    EXPECT_EQ(engine.metrics().counter("executor.tasks").value(),
              coldBatches[0] + batches[1]);
    EXPECT_EQ(engine.cache().misses(), cold[0].workloadNames.size());

    // Asking for more timed repetitions than the entry holds is a
    // counted miss, not a hit: refrate is timed again, the untimed
    // workloads replay.
    const std::uint64_t hits = engine.cache().hits();
    const std::uint64_t misses = engine.cache().misses();
    const std::uint64_t runs =
        engine.metrics().counter("model.runs").value();
    request.refrateRepetitions = 3;
    const auto more =
        core::characterizeSuite(benchmarks, request, engine);
    expectSameModelOutputs(cold[0], more[0]);
    EXPECT_EQ(more[0].refrateRuns.size(), 3u);
    EXPECT_EQ(engine.cache().hits() - hits,
              cold[0].workloadNames.size() - 1);
    EXPECT_EQ(engine.cache().misses() - misses, 1u);
    EXPECT_EQ(engine.metrics().counter("model.runs").value() - runs, 3u);
    const auto rerun = suiteBatchTasks(spans->spans());
    ASSERT_EQ(rerun.size(), 3u);
    EXPECT_EQ(rerun[2], (cold[0].workloadNames.size() - 1) + 3);
}

/** A one-benchmark characterize is the suite path over one
 * benchmark: every untimed workload and every refrate repetition is
 * a scheduler task, under a single characterize_suite root span. */
TEST(SuiteScheduler, SingleBenchmarkCharacterizeRunsThroughTheScheduler)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    CollectSink *spans = nullptr;
    runtime::Engine engine = tracedEngine(2, spans);
    core::RunRequest request;
    request.refrateRepetitions = 2;
    const auto c = core::characterize(*bm, request, engine);

    // Exactly one scheduler batch held every task of the call.
    const auto batches = suiteBatchTasks(spans->spans());
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_EQ(batches[0], (c.workloadNames.size() - 1) + 2);
    EXPECT_EQ(engine.metrics().counter("executor.tasks").value(),
              batches[0]);
    std::size_t roots = 0;
    for (const obs::SpanRecord &span : spans->spans()) {
        if (span.category == "characterize_suite") {
            ++roots;
            EXPECT_EQ(span.parent, 0u);
        }
    }
    EXPECT_EQ(roots, 1u);
}

} // namespace
