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
 * Run every workload of @p benchmark once through the model (plus
 * timed refrate repetitions) and summarize with the paper's
 * methodology.
 *
 * The run is configured by a @ref RunRequest — the same serializable
 * spec the CLI and the `alberta_serve` daemon construct — of which
 * only the model-configuration fields matter here (repetitions,
 * includeTest, jobs); the kind/benchmark/workload
 * routing fields are ignored because the benchmark is passed
 * directly.
 *
 * When @p engine is set it supplies the worker pool, result cache
 * (with optional disk backing), stats block, and observability layer
 * for the run and supersedes RunRequest::jobs. Model runs may
 * execute in parallel and are gathered in workload order; the timed
 * refrate repetitions always run on the calling thread after the
 * pool has drained so the wall-time column is measured on a quiesced
 * machine, with the first timed run doubling as refrate's model run.
 */
Characterization characterize(const runtime::Benchmark &benchmark,
                              const RunRequest &request = {},
                              runtime::Engine *engine = nullptr);

/**
 * Characterize a whole suite through the suite-level scheduler: every
 * (benchmark, workload) model run — refrate timed repetitions
 * included — across all of @p benchmarks is flattened into one global
 * task list and dispatched as a single Executor batch, ordered
 * longest-expected-first from the session's cost ledger. Results are
 * gathered into pre-sized per-benchmark slots, so every
 * Characterization is bit-identical to calling @ref characterize per
 * benchmark serially; returned in @p benchmarks order.
 *
 * Compared to the per-benchmark loop this removes the barrier between
 * benchmarks and lets refrate repetitions overlap other benchmarks'
 * untimed runs instead of quiescing the pool (refrate wall times are
 * therefore measured on a busy machine when jobs > 1 — model outputs
 * are unaffected).
 */
std::vector<Characterization> characterizeSuite(
    std::span<const std::unique_ptr<runtime::Benchmark>> benchmarks,
    const RunRequest &request = {},
    runtime::Engine *engine = nullptr);

/** @ref characterizeSuite over the 15 Table II benchmarks in row
 * order. */
std::vector<Characterization>
characterizeTable2(const RunRequest &request = {},
                   runtime::Engine *engine = nullptr);

/** One formatted Table II row (strings ready for printing). */
std::vector<std::string> table2Row(const Characterization &c);

/** The Table II header, matching @ref table2Row. */
std::vector<std::string> table2Header();

} // namespace alberta::core

#endif // ALBERTA_CORE_SUITE_H
