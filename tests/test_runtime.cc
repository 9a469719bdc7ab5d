/** @file Tests for the workload/benchmark runtime. */
#include <gtest/gtest.h>

#include "runtime/benchmark.h"
#include "support/check.h"
#include "support/rng.h"

namespace {

using namespace alberta;
using namespace alberta::runtime;

TEST(Params, TypedRoundTrip)
{
    Params p;
    p.set("n", 42LL).set("x", 2.5).set("s", "hello").set("flag", true);
    EXPECT_EQ(p.getInt("n"), 42);
    EXPECT_DOUBLE_EQ(p.getDouble("x"), 2.5);
    EXPECT_EQ(p.getString("s"), "hello");
    EXPECT_TRUE(p.getBool("flag"));
    EXPECT_TRUE(p.has("n"));
    EXPECT_FALSE(p.has("absent"));
}

TEST(Params, FallbacksWhenAbsent)
{
    Params p;
    EXPECT_EQ(p.getInt("k", 7), 7);
    EXPECT_DOUBLE_EQ(p.getDouble("k", 1.5), 1.5);
    EXPECT_EQ(p.getString("k", "d"), "d");
    EXPECT_TRUE(p.getBool("k", true));
}

TEST(Params, IntAccessibleAsDouble)
{
    Params p;
    p.set("n", 3LL);
    EXPECT_DOUBLE_EQ(p.getDouble("n"), 3.0);
}

TEST(Workload, NameClassification)
{
    Workload w;
    w.name = "refrate";
    EXPECT_TRUE(w.isRefrate());
    EXPECT_FALSE(w.isAlberta());
    w.name = "alberta.city-1";
    EXPECT_TRUE(w.isAlberta());
    EXPECT_FALSE(w.isRefrate());
}

TEST(Workload, MissingArtifactIsFatal)
{
    Workload w;
    w.name = "x";
    w.files["input"] = "data";
    EXPECT_EQ(w.file("input"), "data");
    EXPECT_THROW(w.file("absent"), support::FatalError);
}

TEST(Context, ChecksumFoldsValues)
{
    ExecutionContext a, b;
    a.consume(std::uint64_t{1});
    a.consume(std::uint64_t{2});
    b.consume(std::uint64_t{2});
    b.consume(std::uint64_t{1});
    EXPECT_NE(a.checksum(), 0u);
    EXPECT_NE(a.checksum(), b.checksum()); // order-sensitive
}

TEST(Context, DoubleConsumptionIsQuantized)
{
    ExecutionContext a, b;
    a.consume(1.0);
    b.consume(1.0 + 1e-9); // below quantum -> same checksum
    EXPECT_EQ(a.checksum(), b.checksum());
}

TEST(Context, ResetClearsState)
{
    ExecutionContext c;
    c.consume(std::uint64_t{5});
    c.machine().ops(topdown::OpKind::IntAlu, 10);
    c.reset();
    EXPECT_EQ(c.checksum(), 0u);
    EXPECT_EQ(c.machine().retiredOps(), 0u);
}

/** A tiny deterministic benchmark for runner tests. */
class ToyBenchmark : public Benchmark
{
  public:
    std::string name() const override { return "000.toy_r"; }
    std::string area() const override { return "Testing"; }

    std::vector<Workload>
    workloads() const override
    {
        Workload ref;
        ref.name = "refrate";
        ref.seed = 1;
        ref.params.set("iters", 20000LL);
        Workload alb;
        alb.name = "alberta.t-1";
        alb.seed = 2;
        alb.params.set("iters", 5000LL);
        return {ref, alb};
    }

    void
    run(const Workload &w, ExecutionContext &ctx) const override
    {
        auto scope = ctx.method("toy_kernel", 512);
        support::Rng rng(w.seed);
        const auto iters = w.params.getInt("iters");
        std::uint64_t acc = 0;
        for (long long i = 0; i < iters; ++i) {
            const auto r = rng();
            ctx.machine().branch(1, r & 1);
            ctx.machine().load(r % (1 << 16));
            ctx.machine().op(topdown::OpKind::IntAlu);
            acc += r & 0xff;
        }
        ctx.consume(acc);
    }
};

TEST(Runner, RunOnceProducesMeasurements)
{
    ToyBenchmark toy;
    const auto w = findWorkload(toy, "refrate");
    const auto m = runOnce(toy, w);
    EXPECT_GT(m.retiredOps, 0u);
    EXPECT_GT(m.simCycles, 0.0);
    EXPECT_NE(m.checksum, 0u);
    EXPECT_NEAR(m.topdown.frontend + m.topdown.backend +
                    m.topdown.badspec + m.topdown.retiring,
                1.0, 1e-9);
    ASSERT_TRUE(m.coverage.count("toy_kernel"));
    EXPECT_NEAR(m.coverage.at("toy_kernel"), 1.0, 1e-9);
}

TEST(Runner, ModelOutputsDeterministicAcrossRuns)
{
    ToyBenchmark toy;
    const auto w = findWorkload(toy, "alberta.t-1");
    const auto a = runOnce(toy, w);
    const auto b = runOnce(toy, w);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_DOUBLE_EQ(a.topdown.retiring, b.topdown.retiring);
    EXPECT_EQ(a.retiredOps, b.retiredOps);
}

TEST(Runner, DifferentWorkloadsDifferentChecksums)
{
    ToyBenchmark toy;
    const auto a = runOnce(toy, findWorkload(toy, "refrate"));
    const auto b = runOnce(toy, findWorkload(toy, "alberta.t-1"));
    EXPECT_NE(a.checksum, b.checksum);
}

TEST(Runner, FindWorkloadMissingIsFatal)
{
    ToyBenchmark toy;
    EXPECT_THROW(findWorkload(toy, "nope"), support::FatalError);
}

} // namespace
