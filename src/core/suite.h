/**
 * @file
 * The Alberta Workloads suite: every mini-benchmark with its workload
 * set, plus the characterization pipeline that reproduces the paper's
 * Table II and Figures 1-2 (per-workload top-down fractions, method
 * coverage, and the mu_g(V) / mu_g(M) summaries).
 */
#ifndef ALBERTA_CORE_SUITE_H
#define ALBERTA_CORE_SUITE_H

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/request.h"
#include "runtime/benchmark.h"
#include "runtime/engine.h"
#include "stats/summary.h"

namespace alberta::core {

/** Construct every benchmark the paper covers (INT + FP). */
std::vector<std::unique_ptr<runtime::Benchmark>> allBenchmarks();

/** Construct one benchmark by SPEC id (e.g. "505.mcf_r"). */
std::unique_ptr<runtime::Benchmark>
makeBenchmark(const std::string &name);

/** The 15 benchmarks of the paper's Table II, in row order. */
const std::vector<std::string> &table2Names();

/** Everything measured for one benchmark across its workloads. */
struct Characterization
{
    std::string benchmark;
    std::string area;
    std::vector<std::string> workloadNames;
    std::vector<stats::TopdownRatios> topdownPerWorkload;
    std::vector<stats::CoverageMap> coveragePerWorkload;
    std::vector<std::uint64_t> checksumPerWorkload;
    std::vector<std::uint64_t> uopsPerWorkload; //!< retired micro-ops
    stats::TopdownSummary topdown;   //!< Eqs. 1-4 over the workloads
    stats::CoverageSummary coverage; //!< Eq. 5 over the workloads
    double refrateSeconds = 0.0;     //!< mean wall time, refrate
    std::vector<double> refrateRuns; //!< raw per-run times
    /**
     * Seconds of each workload's model run, in workload order: wall
     * time for refrate (its first timed repetition), thread CPU time
     * for the untimed runs (see runtime::measureCached).
     */
    std::vector<double> secondsPerWorkload;
};

/**
 * Characterize one benchmark: @ref characterizeSuite over a
 * one-benchmark list, so a single row goes through the same
 * scheduler and refrate timing rule as a whole-suite run.
 */
Characterization characterize(const runtime::Benchmark &benchmark,
                              const RunRequest &request,
                              runtime::Engine &engine);

/**
 * Run every workload of every benchmark in @p benchmarks once through
 * the model (plus timed refrate repetitions) and summarize each with
 * the paper's methodology; returned in @p benchmarks order.
 *
 * The run is configured by a @ref RunRequest — the same serializable
 * spec the CLI and the `alberta_serve` daemon construct — of which
 * the model-configuration fields matter here (repetitions,
 * includeTest); the benchmarks are passed directly. A request of kind
 * "run" keeps only its named workload (even "test" when includeTest
 * is false), so one workload goes through the same tasks and refrate
 * timing rule as a whole suite; a missing name is fatal. @p engine
 * supplies the worker pool, result cache (with optional disk
 * backing), and observability layer. Each executed model run — a
 * cache miss or a timed refrate repetition — bumps `model.runs` and
 * `model.uops_executed`; a replay from either cache tier bumps
 * neither.
 *
 * Every (benchmark, workload) model run — each timed refrate
 * repetition included, as its own task — is flattened into one task
 * list and dispatched through runtime::Scheduler as a single Executor
 * batch, largest Benchmark::costHint first. Results are gathered into
 * pre-sized per-benchmark slots, so every Characterization is
 * bit-identical to a serial run at any pool size. Refrate
 * repetitions overlap the other runs of the batch, so with more than
 * one job their wall times are measured on a busy pool; model
 * outputs are unaffected. The first timed repetition doubles as
 * refrate's model run, and a repetition whose checksum or retired
 * uops differ from it panics (the model is deterministic).
 */
std::vector<Characterization> characterizeSuite(
    std::span<const std::unique_ptr<runtime::Benchmark>> benchmarks,
    const RunRequest &request, runtime::Engine &engine);

/** @ref characterizeSuite over the 15 Table II benchmarks in row
 * order. */
std::vector<Characterization>
characterizeTable2(const RunRequest &request, runtime::Engine &engine);

/** One formatted Table II row (strings ready for printing). */
std::vector<std::string> table2Row(const Characterization &c);

/** The Table II header, matching @ref table2Row. */
std::vector<std::string> table2Header();

} // namespace alberta::core

#endif // ALBERTA_CORE_SUITE_H
