/**
 * @file
 * The benchmark interface every mini-SPEC program implements, and the
 * runner that executes (benchmark, workload) pairs and collects the
 * paper's three measurement types: execution time, top-down fractions,
 * and method coverage.
 */
#ifndef ALBERTA_RUNTIME_BENCHMARK_H
#define ALBERTA_RUNTIME_BENCHMARK_H

#include <memory>
#include <string>
#include <vector>

#include "runtime/context.h"
#include "runtime/workload.h"

namespace alberta::runtime {

/**
 * A benchmark program (in the paper's footnote-2 sense: the program,
 * not yet combined with a workload).
 */
class Benchmark
{
  public:
    virtual ~Benchmark() = default;

    /** SPEC-style identifier, e.g. "505.mcf_r". */
    virtual std::string name() const = 0;

    /** Application area, e.g. "Route planning". */
    virtual std::string area() const = 0;

    /**
     * The benchmark's workload set: "refrate" and "train" (the SPEC-
     * distributed pair) followed by the Alberta workloads. Workloads are
     * fully determined by their seeds and parameters.
     */
    virtual std::vector<Workload> workloads() const = 0;

    /**
     * Execute one workload, reporting micro-ops through @p context and
     * folding observable outputs into its checksum.
     *
     * @throws support::FatalError on malformed workloads
     */
    virtual void run(const Workload &workload,
                     ExecutionContext &context) const = 0;

    /**
     * Rough retired-uop estimate for @p workload, derived from its
     * parameters without running anything. The suite scheduler uses
     * it to order cold runs longest-first before any measured time
     * exists (the CostLedger converts hints to seconds through its
     * persisted calibration rate). Estimates need ranking power, not accuracy — being within a small factor
     * is plenty. 0.0 means unknown (sorts as cheapest).
     */
    virtual double
    costHint(const Workload &workload) const
    {
        (void)workload;
        return 0.0;
    }
};

/** Measurements from a single execution of one (benchmark, workload). */
struct RunMeasurement
{
    double seconds = 0.0;             //!< wall-clock execution time
    double simCycles = 0.0;           //!< modelled core cycles
    std::uint64_t retiredOps = 0;     //!< micro-ops retired
    std::uint64_t checksum = 0;       //!< output checksum
    stats::TopdownRatios topdown;     //!< the four slot fractions
    stats::CoverageMap coverage;      //!< method -> time fraction
};

/** Aggregate of repeated executions of one (benchmark, workload). */
struct WorkloadMeasurement
{
    std::string workload;             //!< workload name
    double meanSeconds = 0.0;         //!< arithmetic mean over runs
    std::vector<double> runSeconds;   //!< raw per-run times
    RunMeasurement representative;    //!< deterministic model outputs
};

/** Execute @p workload once under a fresh context. */
RunMeasurement runOnce(const Benchmark &benchmark,
                       const Workload &workload);

/**
 * Execute @p workload @p repetitions times (the paper uses three) and
 * aggregate. Model-derived outputs (top-down, coverage, checksum) are
 * identical across repetitions by construction; this is verified.
 */
WorkloadMeasurement runRepeated(const Benchmark &benchmark,
                                const Workload &workload,
                                int repetitions = 3);

/** Find a workload by name (fatal if absent). */
Workload findWorkload(const Benchmark &benchmark, std::string_view name);

} // namespace alberta::runtime

#endif // ALBERTA_RUNTIME_BENCHMARK_H
