/**
 * @file
 * Tests for the suite-level scheduler and its cost ledger: the
 * bit-identity of suite-scheduled characterizations against the
 * per-benchmark serial path, longest-expected-first dispatch order,
 * the steals-avoided accounting, and ledger persistence (EMA updates,
 * TSV round-trip, malformed-file tolerance).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <unistd.h>

#include <bit>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/suite.h"
#include "runtime/cost_ledger.h"
#include "runtime/scheduler.h"

namespace {

using namespace alberta;
namespace fs = std::filesystem;

std::string
freshPath(const std::string &tag)
{
    static int counter = 0;
    const fs::path path = fs::path(::testing::TempDir()) /
                          ("alberta-" + tag + "-" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(counter++));
    fs::remove_all(path);
    return path.string();
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

TEST(CostLedger, RecordsAdoptsThenSmoothes)
{
    runtime::CostLedger ledger;
    EXPECT_EQ(ledger.expectedSeconds("a/refrate"), 0.0);
    ledger.record("a/refrate", 4.0); // unknown key: adopt directly
    EXPECT_EQ(ledger.expectedSeconds("a/refrate"), 4.0);
    ledger.record("a/refrate", 2.0); // known key: EMA, alpha 0.5
    EXPECT_EQ(ledger.expectedSeconds("a/refrate"), 3.0);
    // Garbage measurements never poison the ledger.
    ledger.record("a/refrate", -1.0);
    ledger.record("a/refrate", std::nan(""));
    EXPECT_EQ(ledger.expectedSeconds("a/refrate"), 3.0);
    EXPECT_EQ(ledger.size(), 1u);
}

TEST(CostLedger, RoundTripsThroughItsFile)
{
    const std::string path = freshPath("ledger") + ".tsv";
    {
        runtime::CostLedger ledger(path);
        ledger.record("505.mcf_r/refrate", 1.5);
        ledger.record("557.xz_r/train", 0.25);
        ledger.save();
    }
    runtime::CostLedger reloaded(path);
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.expectedSeconds("505.mcf_r/refrate"), 1.5);
    EXPECT_EQ(reloaded.expectedSeconds("557.xz_r/train"), 0.25);
    EXPECT_EQ(reloaded.expectedSeconds("unknown"), 0.0);
}

TEST(CostLedger, MalformedFileLoadsEmpty)
{
    const std::string path = freshPath("ledger-bad") + ".tsv";
    {
        std::ofstream out(path);
        out << "not\tanumber\nmissing-tab\nx\t1.0\textra\n";
    }
    runtime::CostLedger ledger(path);
    // Parseable lines survive, junk is dropped, nothing throws.
    EXPECT_LE(ledger.size(), 1u);
    EXPECT_EQ(ledger.expectedSeconds("not"), 0.0);
}

TEST(CostLedger, CalibrationRatePersistsWithTheEntries)
{
    const std::string path = freshPath("ledger-cal") + ".tsv";
    {
        runtime::CostLedger ledger(path);
        EXPECT_EQ(ledger.secondsPerUnit(), 0.0);
        ledger.recordCalibration(2.0, 1e6); // 2 s over 1M units
        EXPECT_DOUBLE_EQ(ledger.secondsPerUnit(), 2e-6);
        // Degenerate batches never poison the rate.
        ledger.recordCalibration(1.0, 0.0);
        ledger.recordCalibration(-1.0, 1e6);
        EXPECT_DOUBLE_EQ(ledger.secondsPerUnit(), 2e-6);
        ledger.save();
    }
    // The rate rides the normal entry persistence, under its
    // reserved key.
    runtime::CostLedger reloaded(path);
    EXPECT_DOUBLE_EQ(reloaded.secondsPerUnit(), 2e-6);
    EXPECT_DOUBLE_EQ(reloaded.expectedSeconds(
                         runtime::CostLedger::kCalibrationKey),
                     2e-6);
}

TEST(Scheduler, DispatchesLongestExpectedFirst)
{
    runtime::CostLedger ledger;
    ledger.record("short", 0.1);
    ledger.record("long", 0.5);
    ledger.record("medium", 0.2);

    runtime::Executor executor(1); // serial: dispatch order == run order
    runtime::Scheduler scheduler(&executor, &ledger);
    std::vector<std::string> ran;
    std::vector<runtime::SuiteTask> tasks;
    for (const char *key : {"short", "long", "medium", "unknown"}) {
        runtime::SuiteTask t;
        t.costKey = key;
        t.run = [&ran, key](obs::Span &) { ran.emplace_back(key); };
        tasks.push_back(std::move(t));
    }
    const auto stats = scheduler.run(std::move(tasks));

    // Known costs sort descending; unknown (0.0 s) keeps its
    // submission position at the back.
    const std::vector<std::string> expected = {"long", "medium",
                                               "short", "unknown"};
    EXPECT_EQ(ran, expected);
    EXPECT_EQ(stats.dispatched, 4u);
    // "long" (submitted 1) and "medium" (submitted 2) were both
    // promoted ahead of their submission position.
    EXPECT_EQ(stats.stealsAvoided, 2u);
    EXPECT_GE(stats.batchSeconds, 0.0);

    // The batch recorded fresh measurements for every key.
    EXPECT_GT(ledger.expectedSeconds("unknown"), 0.0);
}

TEST(Scheduler, ColdLedgerKeepsSubmissionOrder)
{
    runtime::Executor executor(1);
    runtime::Scheduler scheduler(&executor, nullptr);
    std::vector<int> ran;
    std::vector<runtime::SuiteTask> tasks;
    for (int i = 0; i < 5; ++i) {
        runtime::SuiteTask t;
        t.costKey = "task" + std::to_string(i);
        t.run = [&ran, i](obs::Span &) { ran.push_back(i); };
        tasks.push_back(std::move(t));
    }
    const auto stats = scheduler.run(std::move(tasks));
    EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(stats.stealsAvoided, 0u);
}

/** Satellite: a completely cold ledger still dispatches the biggest
 * estimated workloads first, because tasks carry uop-count hints that
 * the scheduler converts to expected seconds. */
TEST(Scheduler, ColdLedgerOrdersByCostHint)
{
    runtime::CostLedger ledger; // empty: no measured seconds at all
    runtime::Executor executor(1);
    runtime::Scheduler scheduler(&executor, &ledger);

    std::vector<std::string> ran;
    const auto task = [&ran](const char *key, double hint) {
        runtime::SuiteTask t;
        t.costKey = key;
        t.costHint = hint;
        t.run = [&ran, key](obs::Span &) { ran.emplace_back(key); };
        return t;
    };
    std::vector<runtime::SuiteTask> tasks;
    tasks.push_back(task("small", 1e6));
    tasks.push_back(task("huge", 100e6));
    tasks.push_back(task("hintless", 0.0));
    tasks.push_back(task("medium", 10e6));
    const auto stats = scheduler.run(std::move(tasks));

    const std::vector<std::string> expected = {"huge", "medium",
                                               "small", "hintless"};
    EXPECT_EQ(ran, expected);
    EXPECT_EQ(stats.dispatched, 4u);
    // The batch calibrated a seconds-per-unit rate from the hinted
    // tasks' measured times.
    EXPECT_GT(ledger.secondsPerUnit(), 0.0);
}

/** Measured ledger seconds always beat hint estimates: a key the
 * ledger knows is ordered by its history, not its hint. */
TEST(Scheduler, MeasuredSecondsOverrideHints)
{
    runtime::CostLedger ledger;
    ledger.record("was-slow", 5.0);
    runtime::Executor executor(1);
    runtime::Scheduler scheduler(&executor, &ledger);

    std::vector<std::string> ran;
    std::vector<runtime::SuiteTask> tasks;
    {
        runtime::SuiteTask t;
        t.costKey = "big-hint";
        t.costHint = 1e9; // ~10 s at the uncalibrated prior
        t.run = [&ran](obs::Span &) { ran.emplace_back("big-hint"); };
        tasks.push_back(std::move(t));
    }
    {
        runtime::SuiteTask t;
        t.costKey = "was-slow";
        t.costHint = 1.0; // tiny hint, but 5.0 measured seconds
        t.run = [&ran](obs::Span &) { ran.emplace_back("was-slow"); };
        tasks.push_back(std::move(t));
    }
    scheduler.run(std::move(tasks));
    // 1e9 units * 1e-8 s/unit = 10 s expected > 5 s measured.
    EXPECT_EQ(ran.front(), "big-hint");
    EXPECT_EQ(ran.back(), "was-slow");
}

/** The tentpole guarantee: one global longest-first batch across the
 * whole suite produces bit-identical results to characterizing each
 * benchmark serially on its own. */
TEST(SuiteScheduler, MatchesPerBenchmarkSerialBitForBit)
{
    const std::vector<std::string> names = {"505.mcf_r", "557.xz_r",
                                            "541.leela_r"};
    std::vector<std::unique_ptr<runtime::Benchmark>> benchmarks;
    for (const auto &name : names)
        benchmarks.push_back(core::makeBenchmark(name));

    core::RunRequest serialRequest;
    serialRequest.jobs = 1;
    serialRequest.refrateRepetitions = 1;
    std::vector<core::Characterization> serial;
    for (const auto &bm : benchmarks)
        serial.push_back(core::characterize(*bm, serialRequest));

    for (const int jobs : {1, 2, 8}) {
        runtime::Engine engine(jobs);
        core::RunRequest request;
        request.refrateRepetitions = 1;
        const auto suite =
            core::characterizeSuite(benchmarks, request, &engine);
        ASSERT_EQ(suite.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            expectSameModelOutputs(serial[i], suite[i]);

        // Scheduler counters surfaced through the engine's registry.
        EXPECT_GT(
            engine.metrics().counter("scheduler.dispatched").value(),
            0u);
        EXPECT_GT(engine.ledger().size(), 0u);
    }
}

/** A warm second suite pass replays memoized results (including the
 * refrate repetitions) and schedules only what is missing. */
TEST(SuiteScheduler, WarmRerunReplaysInsteadOfRescheduling)
{
    std::vector<std::unique_ptr<runtime::Benchmark>> benchmarks;
    benchmarks.push_back(core::makeBenchmark("557.xz_r"));

    runtime::Engine engine(2);
    core::RunRequest request;
    request.refrateRepetitions = 2;
    const auto cold =
        core::characterizeSuite(benchmarks, request, &engine);
    const std::uint64_t coldDispatched =
        engine.metrics().counter("scheduler.dispatched").value();
    EXPECT_GT(coldDispatched, 0u);

    const auto warm =
        core::characterizeSuite(benchmarks, request, &engine);
    expectSameModelOutputs(cold[0], warm[0]);
    EXPECT_EQ(cold[0].refrateRuns, warm[0].refrateRuns);
    // Refrate replayed from the cache: its repetitions were not
    // rescheduled, so the warm batch is strictly smaller.
    const std::uint64_t warmDispatched =
        engine.metrics().counter("scheduler.dispatched").value() -
        coldDispatched;
    EXPECT_LT(warmDispatched, coldDispatched);
    EXPECT_EQ(engine.stats().cacheMisses, cold[0].workloadNames.size());
}

/** The cost ledger persists next to the disk cache and orders the
 * next session's batch. */
TEST(SuiteScheduler, LedgerPersistsAcrossEngines)
{
    const std::string dir = freshPath("sched-cache");
    std::vector<std::unique_ptr<runtime::Benchmark>> benchmarks;
    benchmarks.push_back(core::makeBenchmark("505.mcf_r"));

    {
        runtime::Engine engine =
            runtime::Engine::Builder().jobs(2).cacheDir(dir).build();
        core::RunRequest request;
        request.refrateRepetitions = 1;
        core::characterizeSuite(benchmarks, request, &engine);
        EXPECT_GT(engine.ledger().size(), 0u);
    }
    EXPECT_TRUE(fs::exists(fs::path(dir) / "cost_ledger.tsv"));

    runtime::Engine second =
        runtime::Engine::Builder().jobs(2).cacheDir(dir).build();
    // The new session knows the old session's costs before running
    // anything.
    EXPECT_GT(second.ledger().size(), 0u);
    EXPECT_GT(second.ledger().expectedSeconds(
                  "505.mcf_r/" +
                  benchmarks[0]->workloads().front().name),
              0.0);
}

} // namespace
