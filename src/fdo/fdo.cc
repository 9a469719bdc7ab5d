#include "fdo/fdo.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "runtime/scheduler.h"
#include "support/check.h"

namespace alberta::fdo {

namespace {

// Optimizer thresholds.
constexpr double kHintBias = 0.85;        //!< min bias to hint a site
constexpr std::uint64_t kMinSamples = 16; //!< ignore colder sites
constexpr double kHotCoverage = 0.05;     //!< hot-method threshold
constexpr double kHotScale = 0.55;        //!< footprint scale, hot code

/** One experiment's gather slots. */
struct ExperimentSlot
{
    std::vector<const runtime::Workload *> train; //!< list order
    std::vector<const Profile *> profiles;        //!< parallel to train
    /** The first training workload, then the non-training ones. */
    std::vector<const runtime::Workload *> evals;
    std::vector<const FdoMeasurement *> baselines; //!< parallel to evals
    std::vector<FdoMeasurement> tuned;             //!< parallel to evals
    Optimization opt;
};

} // namespace

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
               runtime::ResultCache &cache)
{
    runtime::ExecutionContext context;
    context.machine().collectProfile(true);
    benchmark.run(workload, context);
    cache.countRun(context.machine().retiredOps());

    Profile profile;
    profile.sites = context.machine().siteProfiles();
    profile.retiredOps = context.machine().retiredOps();
    // Method hotness via stable keys: names are the stable identity,
    // so hash them the same way the profiler does.
    for (const auto &[name, fraction] : context.coverage()) {
        profile.methodHotness[std::hash<std::string>{}(name)] =
            fraction;
    }
    return profile;
}

Optimization
compileOptimization(const Profile &profile)
{
    Optimization opt;
    for (const auto &[key, counts] : profile.sites) {
        if (counts.total < kMinSamples)
            continue;
        const double bias = static_cast<double>(counts.taken) /
                            static_cast<double>(counts.total);
        if (bias >= kHintBias) {
            opt.hints.direction[key] = true;
            ++opt.hintedSites;
        } else if (bias <= 1.0 - kHintBias) {
            opt.hints.direction[key] = false;
            ++opt.hintedSites;
        }
    }
    for (const auto &[key, hotness] : profile.methodHotness) {
        if (hotness >= kHotCoverage) {
            opt.layout.scale[key] = kHotScale;
            ++opt.hotMethods;
        }
    }
    return opt;
}

FdoMeasurement
runOptimized(const runtime::Benchmark &benchmark,
             const runtime::Workload &workload,
             const Optimization *optimization,
             runtime::ResultCache &cache)
{
    if (!optimization) {
        // A baseline run is exactly the deterministic model run the
        // characterization pipeline memoizes; share its cache.
        const runtime::RunMeasurement run =
            runtime::measureCached(benchmark, workload, cache);
        return {run.simCycles, run.checksum};
    }
    runtime::ExecutionContext context;
    context.installOptimization(&optimization->hints,
                                &optimization->layout);
    benchmark.run(workload, context);
    cache.countRun(context.machine().retiredOps());
    return {context.machine().cycles(), context.checksum()};
}

std::vector<CrossValidation>
crossValidateAll(const std::vector<Experiment> &experiments,
                 runtime::Engine &engine)
{
    runtime::ResultCache &cache = engine.cache();

    // Pre-size every gather slot and build both batches, generating
    // each distinct benchmark's workloads once. Profiles and baselines
    // are keyed "benchmark/workload": each distinct pair runs once, so
    // no two experiments miss one cache key at once.
    std::map<std::string, std::vector<runtime::Workload>> workloads;
    std::map<std::string, Profile> profiles;
    std::map<std::string, FdoMeasurement> baselines;
    std::vector<ExperimentSlot> slots(experiments.size());
    std::vector<runtime::SuiteTask> trainTasks, evalTasks;
    for (std::size_t e = 0; e < experiments.size(); ++e) {
        const runtime::Benchmark &bm = *experiments[e].benchmark;
        std::vector<runtime::Workload> &list = workloads[bm.name()];
        if (list.empty())
            list = bm.workloads();
        const auto task = [&bm](const runtime::Workload &w,
                                const char *category, auto run) {
            return runtime::SuiteTask{bm.name() + '/' + w.name, category,
                                      std::move(run), bm.costHint(w)};
        };
        ExperimentSlot &slot = slots[e];
        for (const std::string &name : experiments[e].train) {
            const auto w =
                std::find_if(list.begin(), list.end(),
                             [&](auto &x) { return x.name == name; });
            support::fatalIf(w == list.end(), bm.name(),
                             " has no workload named '", name, "'");
            auto [it, fresh] = profiles.try_emplace(bm.name() + '/' + name);
            if (fresh) {
                trainTasks.push_back(
                    task(*w, "fdo_train", [&, w, it](obs::Span &) {
                        it->second = collectProfile(bm, *w, cache);
                    }));
            }
            slot.train.push_back(&*w);
            slot.profiles.push_back(&it->second);
        }
        for (const runtime::Workload &w : list) {
            if (!std::count(slot.train.begin(), slot.train.end(), &w))
                slot.evals.push_back(&w);
        }
        support::fatalIf(slot.train.empty() || slot.evals.empty(),
                         bm.name(), ": fdo experiment needs training and "
                                    "evaluation workloads");
        slot.evals.insert(slot.evals.begin(), slot.train.front());
        slot.tuned.resize(slot.evals.size());
        for (std::size_t k = 0; k < slot.evals.size(); ++k) {
            const runtime::Workload *w = slot.evals[k];
            auto [it, fresh] =
                baselines.try_emplace(bm.name() + '/' + w->name);
            if (fresh) {
                evalTasks.push_back(
                    task(*w, "fdo_baseline", [&, w, it](obs::Span &) {
                        it->second = runOptimized(bm, *w, nullptr, cache);
                    }));
            }
            slot.baselines.push_back(&it->second);
            evalTasks.push_back(task(*w, "fdo_eval", [&, w, k](obs::Span &) {
                slot.tuned[k] = runOptimized(bm, *w, &slot.opt, cache);
            }));
        }
    }

    // Batch 1 collects every profile; batch 2 runs every baseline and
    // optimized evaluation.
    runtime::Scheduler scheduler(engine.executor(), &engine.tracer(),
                                 &engine.metrics());
    scheduler.run(std::move(trainTasks));
    std::vector<CrossValidation> out(experiments.size());
    for (std::size_t e = 0; e < slots.size(); ++e) {
        ExperimentSlot &slot = slots[e];
        Profile merged = *slot.profiles.front();
        for (std::size_t t = 1; t < slot.profiles.size(); ++t)
            merged.merge(*slot.profiles[t]);
        slot.opt = compileOptimization(merged);
        out[e].profileSites = merged.sites.size();
        out[e].profileMethods = merged.methodHotness.size();
        out[e].profileUops = merged.retiredOps;
        out[e].hintedSites = slot.opt.hintedSites;
        out[e].hotMethods = slot.opt.hotMethods;
    }
    scheduler.run(std::move(evalTasks));

    // Gather in experiment and workload order.
    for (std::size_t e = 0; e < slots.size(); ++e) {
        const ExperimentSlot &slot = slots[e];
        CrossValidation &cv = out[e];
        cv.benchmark = experiments[e].benchmark->name();
        double logSum = 0.0;
        for (std::size_t k = 0; k < slot.evals.size(); ++k) {
            const runtime::Workload &w = *slot.evals[k];
            const FdoMeasurement &base = *slot.baselines[k];
            support::panicIf(base.checksum != slot.tuned[k].checksum,
                             cv.benchmark, '/', w.name,
                             ": fdo optimization changed program output");
            const double speedup = base.cycles / slot.tuned[k].cycles;
            if (k == 0) {
                cv.selfSpeedup = speedup;
                continue;
            }
            if (w.isRefrate())
                cv.refSpeedup = speedup;
            cv.evalNames.push_back(w.name);
            cv.evalSpeedups.push_back(speedup);
            logSum += std::log(speedup);
        }
        const auto [lo, hi] = std::minmax_element(
            cv.evalSpeedups.begin(), cv.evalSpeedups.end());
        cv.minCross = *lo;
        cv.maxCross = *hi;
        cv.meanCross = std::exp(
            logSum / static_cast<double>(cv.evalSpeedups.size()));
    }
    return out;
}

CrossValidation
crossValidate(const runtime::Benchmark &benchmark,
              const std::string &trainName, runtime::Engine &engine)
{
    return crossValidateAll({{&benchmark, {trainName}}}, engine).front();
}

} // namespace alberta::fdo
