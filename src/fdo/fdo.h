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

/** Optimizer thresholds. */
struct OptimizerConfig
{
    double hintBias = 0.85;      //!< min taken/not-taken bias to hint
    std::uint64_t minSamples = 16; //!< ignore colder sites
    double hotCoverage = 0.05;   //!< method-hotness layout threshold
    double hotScale = 0.55;      //!< code-footprint scale for hot code
};

/**
 * Run @p workload once with profiling enabled; returns the profile.
 * The run is counted in @p cache's `model.*` counters when one is
 * given.
 */
Profile collectProfile(const runtime::Benchmark &benchmark,
                       const runtime::Workload &workload,
                       runtime::ResultCache *cache = nullptr);

/** Compile a profile into branch hints + code layout. */
Optimization compileOptimization(const Profile &profile,
                                 const OptimizerConfig &config = {});

/** One measured run (cycles are the modelled metric of merit). */
struct FdoMeasurement
{
    double cycles = 0.0;
    stats::TopdownRatios topdown;
    std::uint64_t checksum = 0;
};

/**
 * Run @p workload with (or without, pass nullptr) an optimization.
 *
 * Baseline runs (no optimization installed) are plain deterministic
 * model runs, so they are memoized in @p cache when one is given;
 * optimized runs depend on the installed artifacts and always execute
 * (and are counted in @p cache's `model.*` counters).
 */
FdoMeasurement runOptimized(const runtime::Benchmark &benchmark,
                            const runtime::Workload &workload,
                            const Optimization *optimization,
                            runtime::ResultCache *cache = nullptr);

/** Speedup of train-on-@p trainName applied to eval-on-@p evalName. */
double fdoSpeedup(const runtime::Benchmark &benchmark,
                  const runtime::Workload &train,
                  const runtime::Workload &eval,
                  runtime::ResultCache *cache = nullptr);

/** Outcome of the cross-validation methodology for one benchmark. */
struct CrossValidation
{
    std::string benchmark;
    std::string trainWorkload;
    /** Speedup when evaluating on the training workload itself. */
    double selfSpeedup = 1.0;
    /** Speedup on the classic single eval workload ("refrate"). */
    double refSpeedup = 1.0;
    /** Speedups across all other workloads (leave-one-in). */
    std::vector<std::string> evalNames;
    std::vector<double> evalSpeedups;
    double meanCross = 1.0; //!< geometric mean over evalSpeedups
    double minCross = 1.0;
    double maxCross = 1.0;
};

/**
 * The paper's prescribed experiment: train on @p trainName, report
 * both the classic train->refrate number and the distribution across
 * all available (Alberta) workloads. Per-workload evaluations are
 * independent model runs on @p engine's pool, with baseline runs
 * memoized in its cache; results are gathered in workload order and
 * are bit-identical to the serial path.
 */
CrossValidation crossValidate(const runtime::Benchmark &benchmark,
                              const std::string &trainName,
                              runtime::Engine &engine);

} // namespace alberta::fdo

#endif // ALBERTA_FDO_FDO_H
