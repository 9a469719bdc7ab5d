/**
 * @file
 * Feedback-Directed Optimization harness: the methodology substrate
 * the paper's motivation (Sections I, II, VII) calls for.
 *
 * Profiles are collected from an instrumented training run (branch
 * biases per site + method hotness), compiled into static branch
 * hints and hot/cold code layout, and evaluated on other workloads.
 * The cross-validation driver quantifies how much a single
 * train-workload experiment overstates (or misstates) FDO benefit —
 * the paper's central methodological claim.
 */
#ifndef ALBERTA_FDO_FDO_H
#define ALBERTA_FDO_FDO_H

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/benchmark.h"
#include "runtime/engine.h"
#include "topdown/machine.h"

namespace alberta::fdo {

/** A training profile: branch biases and method hotness. */
struct Profile
{
    /** Site key -> (taken, total) counts. */
    std::unordered_map<std::uint64_t, topdown::SiteProfile> sites;
    /** Stable method key -> fraction of total slots. */
    std::unordered_map<std::uint64_t, double> methodHotness;
    std::uint64_t retiredOps = 0;

    /** Merge another profile into this one (combined profiling). */
    void merge(const Profile &other);
};

/** Compiled FDO artifacts (must outlive the optimized run). */
struct Optimization
{
    topdown::BranchHints hints;
    topdown::CodeLayout layout;
    int hintedSites = 0;
    int hotMethods = 0;
};

/**
 * Run @p workload once with profiling enabled; returns the profile.
 * The run is counted in @p cache's `model.*` counters.
 */
Profile collectProfile(const runtime::Benchmark &benchmark,
                       const runtime::Workload &workload,
                       runtime::ResultCache &cache);

/** Compile a profile into branch hints + code layout. */
Optimization compileOptimization(const Profile &profile);

/** One measured run (cycles are the modelled metric of merit). */
struct FdoMeasurement
{
    double cycles = 0.0;
    std::uint64_t checksum = 0;
};

/**
 * Run @p workload with (or without, pass nullptr) an optimization.
 *
 * Baseline runs (no optimization installed) are plain deterministic
 * model runs, so they are memoized in @p cache; optimized runs depend
 * on the installed artifacts and always execute (and are counted in
 * @p cache's `model.*` counters).
 */
FdoMeasurement runOptimized(const runtime::Benchmark &benchmark,
                            const runtime::Workload &workload,
                            const Optimization *optimization,
                            runtime::ResultCache &cache);

/** One experiment: train on @ref train's profiles, merged in order. */
struct Experiment
{
    const runtime::Benchmark *benchmark = nullptr;
    std::vector<std::string> train;
};

/** Outcome of the cross-validation methodology for one experiment. */
struct CrossValidation
{
    std::string benchmark;
    /** Speedup when evaluating on the first training workload. */
    double selfSpeedup = 1.0;
    /** Speedup on the classic single eval workload ("refrate"). */
    double refSpeedup = 1.0;
    /** Speedups on every non-training workload, in workload order. */
    std::vector<std::string> evalNames;
    std::vector<double> evalSpeedups;
    double meanCross = 1.0; //!< geometric mean over evalSpeedups
    double minCross = 1.0;
    double maxCross = 1.0;
    /** Sizes of the merged profile and its compiled optimization. */
    std::size_t profileSites = 0;
    std::size_t profileMethods = 0;
    std::uint64_t profileUops = 0;
    int hintedSites = 0;
    int hotMethods = 0;
};

/**
 * The paper's prescribed experiment, for each of @p experiments: the
 * classic train->refrate number and the distribution across all other
 * (Alberta) workloads. Two scheduler batches on @p engine: one profile
 * run per distinct (benchmark, training workload), then one cached
 * baseline per distinct evaluated pair plus one optimized run per
 * (experiment, evaluated workload). Each benchmark's workloads are
 * generated once; results are bit-identical at any pool size.
 */
std::vector<CrossValidation>
crossValidateAll(const std::vector<Experiment> &experiments,
                 runtime::Engine &engine);

/** crossValidateAll for one benchmark trained on @p trainName. */
CrossValidation crossValidate(const runtime::Benchmark &benchmark,
                              const std::string &trainName,
                              runtime::Engine &engine);

} // namespace alberta::fdo

#endif // ALBERTA_FDO_FDO_H
