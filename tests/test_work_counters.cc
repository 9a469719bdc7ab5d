/**
 * @file
 * Exact work-counter gate: the deterministic counts a Table II suite
 * request leaves in the engine's metrics registry.
 *
 * A cold call on an empty cache directory executes every model run
 * once: 180 untimed runs plus 3 timed repetitions of each of the 15
 * refrate workloads. A second engine on the same directory executes
 * none and returns the same payload bytes. These counts do not depend
 * on the host, the pool size or the load, so they gate exactly where
 * wall times could not.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/request.h"
#include "core/suite.h"
#include "collect_sink.h"

namespace {

using namespace alberta;
using tests::CollectSink;
namespace fs = std::filesystem;

std::uint64_t
count(runtime::Engine &engine, const std::string &name)
{
    return engine.metrics().counter(name).value();
}

/** Sum of the `uops` notes on the spans of executed model runs. */
std::uint64_t
spanUops(const std::vector<obs::SpanRecord> &spans)
{
    std::uint64_t sum = 0;
    for (const obs::SpanRecord &span : spans) {
        if (span.category != "model_run" &&
            span.category != "refrate_rep")
            continue;
        for (const auto &[key, value] : span.attrs) {
            if (key == "uops")
                sum += std::stoull(value);
        }
    }
    return sum;
}

constexpr std::uint64_t kTable2Workloads = 195;
constexpr std::uint64_t kTable2ModelRuns = 225;
constexpr std::uint64_t kTable2UopsExecuted = 4'101'610'253ULL;

TEST(WorkCounters, ColdAndWarmTable2SuiteCountExactly)
{
    const fs::path dir = fs::path(::testing::TempDir()) /
                         ("alberta-work-counters-" +
                          std::to_string(::getpid()));
    fs::remove_all(dir);

    core::RunRequest suite;
    suite.kind = "suite";

    auto sink = std::make_unique<CollectSink>();
    CollectSink *spans = sink.get();
    runtime::Engine cold = runtime::Engine::Builder()
                               .cacheDir(dir.string())
                               .traceSink(std::move(sink))
                               .build();
    const core::RunResult coldResult = core::execute(suite, cold);
    ASSERT_TRUE(coldResult.ok) << coldResult.error;
    EXPECT_EQ(count(cold, "model.runs"), kTable2ModelRuns);
    EXPECT_EQ(count(cold, "model.uops_executed"), kTable2UopsExecuted);
    EXPECT_EQ(count(cold, "cache.misses"), kTable2Workloads);
    EXPECT_EQ(count(cold, "cache.hits"), 0u);
    EXPECT_EQ(count(cold, "cache.disk_writes"), kTable2Workloads);
    // Every executed run's span carries its uops, so the trace and the
    // registry agree on the executed work.
    EXPECT_EQ(spanUops(spans->spans()),
              count(cold, "model.uops_executed"));

    runtime::Engine warm =
        runtime::Engine::Builder().cacheDir(dir.string()).build();
    const core::RunResult warmResult = core::execute(suite, warm);
    EXPECT_EQ(count(warm, "model.runs"), 0u);
    EXPECT_EQ(count(warm, "model.uops_executed"), 0u);
    EXPECT_EQ(count(warm, "cache.hits"), kTable2Workloads);
    EXPECT_EQ(count(warm, "cache.disk_hits"), kTable2Workloads);
    EXPECT_EQ(count(warm, "cache.disk_writes"), 0u);
    // The disk-warm call replays the stored results and refrate
    // timings, so all 15 rows come back byte for byte.
    ASSERT_TRUE(warmResult.ok) << warmResult.error;
    EXPECT_EQ(warmResult.payload, coldResult.payload);

    // A run request replays its cached refrate timings: no model
    // executes, so neither model counter moves.
    core::RunRequest run;
    run.kind = "run";
    run.benchmark = "557.xz_r";
    run.workload = "refrate";
    core::execute(run, warm);
    EXPECT_EQ(count(warm, "model.runs"), 0u);
    EXPECT_EQ(count(warm, "model.uops_executed"), 0u);

    fs::remove_all(dir);
}

} // namespace
