/** @file Tests for the FDO harness. */
#include <gtest/gtest.h>

#include "benchmarks/mcf/benchmark.h"
#include "benchmarks/xz/benchmark.h"
#include "fdo/fdo.h"
#include "support/check.h"

namespace {

using namespace alberta;
using namespace alberta::fdo;

TEST(Profile, CollectsBranchSites)
{
    mcf::McfBenchmark bm;
    const auto w = runtime::findWorkload(bm, "test");
    const Profile p = collectProfile(bm, w);
    EXPECT_FALSE(p.sites.empty());
    EXPECT_FALSE(p.methodHotness.empty());
    EXPECT_GT(p.retiredOps, 0u);
    // Site counts are consistent.
    for (const auto &[key, counts] : p.sites)
        EXPECT_LE(counts.taken, counts.total);
    // Hotness fractions sum to ~1.
    double sum = 0.0;
    for (const auto &[key, hotness] : p.methodHotness)
        sum += hotness;
    EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(Profile, MergeAccumulatesCounts)
{
    Profile a, b;
    a.sites[1] = {10, 20};
    a.methodHotness[7] = 1.0;
    a.retiredOps = 100;
    b.sites[1] = {5, 10};
    b.sites[2] = {1, 2};
    b.methodHotness[7] = 0.5;
    b.methodHotness[8] = 0.5;
    b.retiredOps = 100;
    a.merge(b);
    EXPECT_EQ(a.sites[1].taken, 15u);
    EXPECT_EQ(a.sites[1].total, 30u);
    EXPECT_EQ(a.sites[2].total, 2u);
    EXPECT_NEAR(a.methodHotness[7], 0.75, 1e-9);
    EXPECT_NEAR(a.methodHotness[8], 0.25, 1e-9);
}

TEST(Optimizer, HintsOnlyBiasedHotSites)
{
    Profile p;
    p.sites[1] = {98, 100};  // strongly taken -> hint true
    p.sites[2] = {2, 100};   // strongly not-taken -> hint false
    p.sites[3] = {50, 100};  // unbiased -> no hint
    p.sites[4] = {5, 5};     // too few samples -> no hint
    const Optimization opt = compileOptimization(p);
    EXPECT_EQ(opt.hintedSites, 2);
    EXPECT_TRUE(opt.hints.direction.at(1));
    EXPECT_FALSE(opt.hints.direction.at(2));
    EXPECT_EQ(opt.hints.direction.count(3), 0u);
    EXPECT_EQ(opt.hints.direction.count(4), 0u);
}

TEST(Optimizer, LaysOutHotMethods)
{
    Profile p;
    p.methodHotness[11] = 0.6;
    p.methodHotness[12] = 0.01; // cold
    const Optimization opt = compileOptimization(p);
    EXPECT_EQ(opt.hotMethods, 1);
    EXPECT_LT(opt.layout.scale.at(11), 1.0);
}

TEST(Fdo, OptimizationPreservesOutputAndHelpsSelf)
{
    // Training and evaluating on the same workload (the paper's
    // critique target) must give a speedup >= ~1.
    xz::XzBenchmark bm;
    const auto w = runtime::findWorkload(bm, "test");
    const Profile p = collectProfile(bm, w);
    const Optimization opt = compileOptimization(p);
    const FdoMeasurement base = runOptimized(bm, w, nullptr);
    const FdoMeasurement tuned = runOptimized(bm, w, &opt);
    EXPECT_EQ(base.checksum, tuned.checksum);
    EXPECT_GT(base.cycles / tuned.cycles, 0.99);
}

TEST(Fdo, CrossValidationProducesFullReport)
{
    mcf::McfBenchmark bm;
    runtime::Engine engine(1);
    const CrossValidation cv = crossValidate(bm, "test", engine);
    EXPECT_EQ(cv.benchmark, "505.mcf_r");
    EXPECT_EQ(cv.evalNames.size(), 6u); // 7 workloads minus train
    EXPECT_GT(cv.selfSpeedup, 0.9);
    EXPECT_GE(cv.maxCross, cv.minCross);
    EXPECT_GE(cv.maxCross, cv.meanCross);
    EXPECT_LE(cv.minCross, cv.meanCross + 1e-12);
    // Every executed model run is counted: 1 profile run, 7 baseline
    // misses (6 evaluations + the self-evaluation), 7 optimized runs.
    EXPECT_EQ(engine.metrics().counter("model.runs").value(), 15u);
    EXPECT_EQ(engine.metrics().counter("cache.misses").value(), 7u);
}

TEST(Fdo, SpeedupHelperMatchesManualPath)
{
    mcf::McfBenchmark bm;
    const auto train = runtime::findWorkload(bm, "test");
    const auto eval = runtime::findWorkload(bm, "train");
    const double s = fdoSpeedup(bm, train, eval);
    EXPECT_GT(s, 0.8);
    EXPECT_LT(s, 2.0);
}

} // namespace
