#include "fdo/fdo.h"

#include <algorithm>
#include <cmath>

#include "profile/coverage.h"
#include "support/check.h"

namespace alberta::fdo {

void
Profile::merge(const Profile &other)
{
    for (const auto &[key, counts] : other.sites) {
        auto &mine = sites[key];
        mine.taken += counts.taken;
        mine.total += counts.total;
    }
    const double selfWeight =
        retiredOps + other.retiredOps > 0
            ? static_cast<double>(retiredOps) /
                  (retiredOps + other.retiredOps)
            : 0.5;
    for (auto &[key, hotness] : methodHotness)
        hotness *= selfWeight;
    for (const auto &[key, hotness] : other.methodHotness)
        methodHotness[key] += hotness * (1.0 - selfWeight);
    retiredOps += other.retiredOps;
}

Profile
collectProfile(const runtime::Benchmark &benchmark,
               const runtime::Workload &workload,
               runtime::ResultCache *cache)
{
    runtime::ExecutionContext context;
    context.machine().collectProfile(true);
    benchmark.run(workload, context);
    if (cache)
        cache->countRun(context.machine().retiredOps());

    Profile profile;
    profile.sites = context.machine().siteProfiles();
    profile.retiredOps = context.machine().retiredOps();

    // Method hotness via stable keys.
    const auto &perMethod = context.machine().perMethod();
    double total = 0.0;
    for (const auto &slots : perMethod)
        total += slots.total();
    // Re-derive stable keys through the coverage map: names are the
    // stable identity, so hash them the same way the profiler does.
    for (const auto &[name, fraction] : context.coverage()) {
        profile.methodHotness[std::hash<std::string>{}(name)] =
            fraction;
    }
    (void)total;
    return profile;
}

Optimization
compileOptimization(const Profile &profile,
                    const OptimizerConfig &config)
{
    Optimization opt;
    for (const auto &[key, counts] : profile.sites) {
        if (counts.total < config.minSamples)
            continue;
        const double bias = static_cast<double>(counts.taken) /
                            static_cast<double>(counts.total);
        if (bias >= config.hintBias) {
            opt.hints.direction[key] = true;
            ++opt.hintedSites;
        } else if (bias <= 1.0 - config.hintBias) {
            opt.hints.direction[key] = false;
            ++opt.hintedSites;
        }
    }
    for (const auto &[key, hotness] : profile.methodHotness) {
        if (hotness >= config.hotCoverage) {
            opt.layout.scale[key] = config.hotScale;
            ++opt.hotMethods;
        }
    }
    return opt;
}

FdoMeasurement
runOptimized(const runtime::Benchmark &benchmark,
             const runtime::Workload &workload,
             const Optimization *optimization,
             runtime::ResultCache *cache)
{
    FdoMeasurement m;
    if (!optimization) {
        // A baseline run is exactly the deterministic model run the
        // characterization pipeline memoizes; share its cache.
        const runtime::RunMeasurement run =
            runtime::measureCached(benchmark, workload, cache);
        m.cycles = run.simCycles;
        m.topdown = run.topdown;
        m.checksum = run.checksum;
        return m;
    }
    runtime::ExecutionContext context;
    context.installOptimization(&optimization->hints,
                                &optimization->layout);
    benchmark.run(workload, context);
    if (cache)
        cache->countRun(context.machine().retiredOps());
    m.cycles = context.machine().cycles();
    m.topdown = context.machine().ratios();
    m.checksum = context.checksum();
    return m;
}

double
fdoSpeedup(const runtime::Benchmark &benchmark,
           const runtime::Workload &train,
           const runtime::Workload &eval,
           runtime::ResultCache *cache)
{
    const Profile profile = collectProfile(benchmark, train, cache);
    const Optimization opt = compileOptimization(profile);
    const FdoMeasurement base =
        runOptimized(benchmark, eval, nullptr, cache);
    const FdoMeasurement tuned =
        runOptimized(benchmark, eval, &opt, cache);
    support::panicIf(base.checksum != tuned.checksum,
                     "fdo: optimization changed program output");
    return base.cycles / tuned.cycles;
}

CrossValidation
crossValidate(const runtime::Benchmark &benchmark,
              const std::string &trainName, runtime::Engine &engine)
{
    const auto workloads = benchmark.workloads();
    const runtime::Workload *train = nullptr;
    std::vector<const runtime::Workload *> evals;
    for (const auto &w : workloads) {
        if (w.name == trainName)
            train = &w;
        else
            evals.push_back(&w);
    }
    support::fatalIf(!train, benchmark.name(), " has no workload named '",
                     trainName, "'");
    support::fatalIf(evals.empty(),
                     "fdo: benchmark has no evaluation workloads");

    // The engine supplies the shared pool, baseline-run cache, and
    // tracing: one root span per cross-validation, one child span per
    // evaluated workload.
    runtime::ResultCache *cache = &engine.cache();
    obs::Tracer *tracer = &engine.tracer();

    obs::Span root(tracer, benchmark.name(), "crossvalidate");
    root.note("train", trainName);

    const Profile profile = [&] {
        obs::Span span(tracer, "collect_profile", "fdo_train",
                       root.id());
        return collectProfile(benchmark, *train, cache);
    }();
    const Optimization opt = compileOptimization(profile);

    CrossValidation cv;
    cv.benchmark = benchmark.name();
    cv.trainWorkload = trainName;

    const std::uint64_t rootId = root.id();
    const auto speedupOn = [&](const runtime::Workload &w) {
        obs::Span eval(tracer, w.name, "fdo_eval", rootId);
        const FdoMeasurement base =
            runOptimized(benchmark, w, nullptr, cache);
        const FdoMeasurement tuned =
            runOptimized(benchmark, w, &opt, cache);
        const double speedup = base.cycles / tuned.cycles;
        eval.note("speedup", speedup);
        return speedup;
    };

    // Every evaluation (and the self-evaluation) is an independent
    // pair of model runs; fan them out and gather in workload order.
    std::vector<double> speedups(evals.size());
    engine.executor().parallelFor(
        evals.size() + 1, [&](std::size_t task) {
            if (task == evals.size())
                cv.selfSpeedup = speedupOn(*train);
            else
                speedups[task] = speedupOn(*evals[task]);
        });
    engine.metrics().counter("fdo.evaluations").add(evals.size() + 1);

    double logSum = 0.0;
    cv.minCross = 1e30;
    cv.maxCross = -1e30;
    for (std::size_t i = 0; i < evals.size(); ++i) {
        const runtime::Workload &w = *evals[i];
        const double speedup = speedups[i];
        if (w.isRefrate())
            cv.refSpeedup = speedup;
        cv.evalNames.push_back(w.name);
        cv.evalSpeedups.push_back(speedup);
        logSum += std::log(speedup);
        cv.minCross = std::min(cv.minCross, speedup);
        cv.maxCross = std::max(cv.maxCross, speedup);
    }
    cv.meanCross =
        std::exp(logSum / static_cast<double>(evals.size()));
    return cv;
}

} // namespace alberta::fdo
