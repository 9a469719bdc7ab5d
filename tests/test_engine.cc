/**
 * @file
 * Tests for the runtime::Engine facade: construction and builder
 * configuration, bit-identity of characterizations run through a
 * pooled engine versus a one-job engine, bit-identity with tracing
 * enabled versus disabled, span coverage (at least one span per
 * workload), and the end-of-run metrics snapshot.
 */
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/suite.h"

namespace {

using namespace alberta;

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
    ASSERT_EQ(a.topdownPerWorkload.size(),
              b.topdownPerWorkload.size());
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

TEST(Engine, ConstructionAndBuilder)
{
    runtime::Engine plain;
    EXPECT_GE(plain.jobs(), 1);
    EXPECT_FALSE(plain.tracing());
    EXPECT_TRUE(plain.tracePath().empty());

    runtime::Engine sized(3);
    EXPECT_EQ(sized.jobs(), 3);

    runtime::Engine built = runtime::Engine::Builder().jobs(2).build();
    EXPECT_EQ(built.jobs(), 2);
    EXPECT_FALSE(built.tracing());
    built.flushTrace(); // null sink: must be a safe no-op
}

TEST(Engine, BuilderCustomSinkEnablesTracing)
{
    std::ostringstream out;
    runtime::Engine engine =
        runtime::Engine::Builder()
            .jobs(2)
            .traceSink(std::make_unique<obs::JsonLinesSink>(out))
            .build();
    EXPECT_TRUE(engine.tracing());
    {
        obs::Span span(&engine.tracer(), "probe", "test");
        EXPECT_TRUE(span.active());
    }
    engine.flushTrace();
    EXPECT_NE(out.str().find("\"probe\""), std::string::npos);
}

/** A pooled engine and a one-job engine must agree bit for bit, and
 * two identically-configured sessions see identical work. */
TEST(Engine, MatchesBareSerialPathBitForBit)
{
    const auto bm = core::makeBenchmark("505.mcf_r");

    runtime::Engine engine(2);
    core::RunRequest request;
    request.refrateRepetitions = 2;
    const auto a = core::characterize(*bm, request, engine);

    runtime::Engine serial(1);
    const auto b = core::characterize(*bm, request, serial);

    expectSameModelOutputs(a, b);

    runtime::Engine twin(2);
    const auto c = core::characterize(*bm, request, twin);
    expectSameModelOutputs(a, c);
    for (const char *name : {"executor.tasks", "cache.misses",
                             "model.runs", "model.uops_executed"})
        EXPECT_EQ(engine.metrics().counter(name).value(),
                  twin.metrics().counter(name).value())
            << name;
}

/** The headline guarantee: tracing never changes model outputs. */
TEST(Engine, TracedCharacterizationIsBitIdentical)
{
    const auto bm = core::makeBenchmark("523.xalancbmk_r");

    runtime::Engine untraced(2);
    core::RunRequest request;
    request.refrateRepetitions = 1;
    const auto base = core::characterize(*bm, request, untraced);

    std::ostringstream out;
    runtime::Engine traced =
        runtime::Engine::Builder()
            .jobs(2)
            .traceSink(std::make_unique<obs::JsonLinesSink>(out))
            .build();
    const auto withTrace = core::characterize(*bm, request, traced);
    traced.flushTrace();
    const std::size_t coldEnd = out.str().size();
    // A warm second call replays refrate from the cache, which is
    // where the suite path opens its cache_probe span.
    const auto warm = core::characterize(*bm, request, traced);
    traced.flushTrace();

    expectSameModelOutputs(base, withTrace);
    expectSameModelOutputs(base, warm);

    // Span coverage: at least one span per workload (model_run spans
    // for the untimed runs, refrate_rep spans for the timed runs).
    const std::string trace = out.str();
    std::size_t spans = 0;
    for (std::size_t pos = trace.find("\"cat\":");
         pos != std::string::npos;
         pos = trace.find("\"cat\":", pos + 1))
        ++spans;
    EXPECT_GE(spans, base.workloadNames.size());
    EXPECT_NE(trace.find("\"cat\":\"model_run\""), std::string::npos);
    EXPECT_NE(trace.find("\"cat\":\"refrate_rep\""),
              std::string::npos);
    EXPECT_NE(trace.find("\"cat\":\"cache_probe\"", coldEnd),
              std::string::npos);
    EXPECT_NE(trace.find("\"cat\":\"summarize\""), std::string::npos);
    EXPECT_NE(trace.find("\"cat\":\"characterize_suite\""),
              std::string::npos);
}

TEST(Engine, MetricsSnapshotCoversSessionActivity)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    runtime::Engine engine(2);
    core::RunRequest request;
    request.refrateRepetitions = 1;
    core::characterize(*bm, request, engine);
    core::characterize(*bm, request, engine); // warm: cache hits

    const auto snapshot = engine.metricsSnapshot();
    const auto value = [&](const std::string &name) -> double {
        for (const auto &s : snapshot) {
            if (s.name == name)
                return s.value;
        }
        ADD_FAILURE() << "metric missing: " << name;
        return -1.0;
    };
    EXPECT_EQ(value("characterize.calls"), 2.0);
    EXPECT_GT(value("executor.batches"), 0.0);
    EXPECT_GT(value("executor.tasks"), 0.0);
    EXPECT_GT(value("cache.misses"), 0.0);
    EXPECT_GT(value("cache.hits"), 0.0);
    EXPECT_GT(value("cache.entries"), 0.0);
    EXPECT_EQ(value("executor.jobs"), 2.0);
    EXPECT_GT(value("model.runs"), 0.0);
    EXPECT_GT(value("model.uops_executed"), 0.0);
    EXPECT_GE(value("executor.run_seconds"), 0.0);
    EXPECT_GE(value("executor.queue_seconds"), 0.0);

    // Sorted by name, no duplicates.
    for (std::size_t i = 1; i < snapshot.size(); ++i)
        EXPECT_LT(snapshot[i - 1].name, snapshot[i].name);
}

} // namespace
