/** @file Tests for the FDO harness. */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "benchmarks/mcf/benchmark.h"
#include "benchmarks/xz/benchmark.h"
#include "fdo/fdo.h"
#include "support/check.h"
#include "collect_sink.h"

namespace {

using namespace alberta;
using namespace alberta::fdo;
using tests::CollectSink;
using tests::suiteBatchTasks;

std::uint64_t
count(runtime::Engine &engine, const std::string &name)
{
    return engine.metrics().counter(name).value();
}

/**
 * The serial reference for one experiment: a plain loop over
 * collectProfile/compileOptimization/runOptimized on its own cache.
 * Returns the self-evaluation's speedup, then every non-training
 * workload's, in workload order.
 */
std::vector<double>
serialSpeedups(const runtime::Benchmark &bm,
               const std::vector<std::string> &train)
{
    obs::Registry metrics;
    runtime::ResultCache cache(metrics);
    Profile profile =
        collectProfile(bm, runtime::findWorkload(bm, train[0]), cache);
    for (std::size_t t = 1; t < train.size(); ++t) {
        profile.merge(collectProfile(
            bm, runtime::findWorkload(bm, train[t]), cache));
    }
    const Optimization opt = compileOptimization(profile);
    const auto speedup = [&](const runtime::Workload &w) {
        return runOptimized(bm, w, nullptr, cache).cycles /
               runOptimized(bm, w, &opt, cache).cycles;
    };
    std::vector<double> out = {
        speedup(runtime::findWorkload(bm, train[0]))};
    for (const runtime::Workload &w : bm.workloads()) {
        if (std::find(train.begin(), train.end(), w.name) == train.end())
            out.push_back(speedup(w));
    }
    return out;
}

TEST(Profile, CollectsBranchSites)
{
    mcf::McfBenchmark bm;
    const auto w = runtime::findWorkload(bm, "test");
    obs::Registry metrics;
    runtime::ResultCache cache(metrics);
    const Profile p = collectProfile(bm, w, cache);
    EXPECT_EQ(metrics.counter("model.runs").value(), 1u);
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
    obs::Registry metrics;
    runtime::ResultCache cache(metrics);
    const Profile p = collectProfile(bm, w, cache);
    const Optimization opt = compileOptimization(p);
    const FdoMeasurement base = runOptimized(bm, w, nullptr, cache);
    const FdoMeasurement tuned = runOptimized(bm, w, &opt, cache);
    EXPECT_EQ(base.checksum, tuned.checksum);
    EXPECT_GT(base.cycles / tuned.cycles, 0.99);
}

TEST(Fdo, CrossValidationProducesFullReport)
{
    mcf::McfBenchmark bm;
    auto sink = std::make_unique<CollectSink>();
    CollectSink *spans = sink.get();
    runtime::Engine engine =
        runtime::Engine::Builder().jobs(1).traceSink(std::move(sink)).build();
    const CrossValidation cv = crossValidate(bm, "test", engine);
    EXPECT_EQ(suiteBatchTasks(spans->spans()),
              (std::vector<std::uint64_t>{1, 14}));
    EXPECT_EQ(cv.benchmark, "505.mcf_r");
    EXPECT_EQ(cv.evalNames.size(), 6u); // 7 workloads minus train
    EXPECT_GT(cv.selfSpeedup, 0.9);
    EXPECT_GE(cv.maxCross, cv.minCross);
    EXPECT_GE(cv.maxCross, cv.meanCross);
    EXPECT_LE(cv.minCross, cv.meanCross + 1e-12);
    // Every executed model run is counted: 1 profile run, 7 baseline
    // misses (6 evaluations + the self-evaluation), 7 optimized runs.
    EXPECT_EQ(count(engine, "model.runs"), 15u);
    EXPECT_EQ(count(engine, "cache.misses"), 7u);
    // Training on "test" transfers to "train" within a plausible band.
    const auto train =
        std::find(cv.evalNames.begin(), cv.evalNames.end(), "train");
    ASSERT_NE(train, cv.evalNames.end());
    const double s = cv.evalSpeedups[train - cv.evalNames.begin()];
    EXPECT_GT(s, 0.8);
    EXPECT_LT(s, 2.0);
}

TEST(Fdo, CrossValidateAllMatchesSerialReferenceBitForBit)
{
    mcf::McfBenchmark bm;
    const std::vector<std::string> combined = {
        "test", "alberta.city-1", "alberta.city-2"};
    const std::vector<Experiment> experiments = {{&bm, {"test"}},
                                                 {&bm, combined}};
    const std::vector<std::vector<double>> reference = {
        serialSpeedups(bm, {"test"}), serialSpeedups(bm, combined)};
    ASSERT_EQ(reference[0].size(), 7u);
    ASSERT_EQ(reference[1].size(), 5u);

    for (const int jobs : {1, 4}) {
        SCOPED_TRACE(jobs);
        auto sink = std::make_unique<CollectSink>();
        CollectSink *spans = sink.get();
        runtime::Engine engine = runtime::Engine::Builder()
                                     .jobs(jobs)
                                     .traceSink(std::move(sink))
                                     .build();
        const std::vector<CrossValidation> cold =
            crossValidateAll(experiments, engine);
        ASSERT_EQ(cold.size(), 2u);
        for (std::size_t e = 0; e < cold.size(); ++e) {
            ASSERT_EQ(cold[e].evalSpeedups.size() + 1,
                      reference[e].size());
            EXPECT_EQ(cold[e].selfSpeedup, reference[e][0]);
            for (std::size_t i = 0; i < cold[e].evalSpeedups.size(); ++i)
                EXPECT_EQ(cold[e].evalSpeedups[i], reference[e][i + 1]);
        }
        // Two batches: 3 distinct profile runs, then 7 distinct
        // baselines plus 7 + 5 optimized runs.
        EXPECT_EQ(suiteBatchTasks(spans->spans()),
                  (std::vector<std::uint64_t>{3, 19}));
        EXPECT_EQ(count(engine, "model.runs"), 22u);
        EXPECT_EQ(count(engine, "cache.misses"), 7u);
        EXPECT_EQ(count(engine, "cache.hits"), 0u);

        // A warm re-run replays every baseline and executes only the
        // profile and optimized runs again.
        const std::vector<CrossValidation> warm =
            crossValidateAll(experiments, engine);
        EXPECT_EQ(suiteBatchTasks(spans->spans()).size(), 4u);
        EXPECT_EQ(count(engine, "cache.hits"), 7u);
        EXPECT_EQ(count(engine, "cache.misses"), 7u);
        EXPECT_EQ(count(engine, "model.runs"), 22u + 3u + 12u);
        for (std::size_t e = 0; e < warm.size(); ++e) {
            EXPECT_EQ(warm[e].selfSpeedup, cold[e].selfSpeedup);
            EXPECT_EQ(warm[e].evalSpeedups, cold[e].evalSpeedups);
        }
    }
}

} // namespace
