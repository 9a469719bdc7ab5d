/**
 * @file
 * Reproduces Table II: for each of the paper's 15 benchmarks, the
 * workload count, geometric mean and geometric standard deviation of
 * the four top-down categories (f, b, s, r), the proportional-
 * variation summary mu_g(V) (Eq. 4), the method-coverage summary
 * mu_g(M) (Eq. 5), and the mean refrate time over three runs.
 *
 * Reproduction target (see EXPERIMENTS.md): the *shape* — which
 * benchmarks are workload-sensitive, the small-mean bad-speculation
 * inflation for lbm/cactuBSSN, and the coverage-variation ordering —
 * not the absolute hardware values.
 *
 * The suite is characterized four times to exercise and track the
 * execution engine:
 *
 *   1. serial baseline      per-benchmark loop, jobs=1, cold cache
 *   2. suite-scheduled cold characterizeTable2 through one global
 *                           longest-first batch, empty memory cache,
 *                           cold disk cache
 *   3. warm (in-process)    same engine, memoized results
 *   4. disk-warm            a FRESH engine on the same cache
 *                           directory — simulates a second process
 *                           whose memory cache is empty but whose
 *                           disk cache is populated
 *
 * Model outputs must be bit-identical across the four passes. Wall
 * times, derived speedups, per-benchmark longest-chain seconds, and
 * the disk-cache counters are written to BENCH_table2.json.
 *
 *   bench_table2 [--jobs N] [--json PATH] [--cache-dir DIR]
 *
 * Without --cache-dir a temporary directory is used and removed on
 * exit; with it, the result store persists so later invocations start
 * warm.
 */
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/suite.h"
#include "support/table.h"

namespace {

using namespace alberta;

/** The serial baseline: one benchmark at a time on a one-job engine.
 * When @p perBenchSeconds is non-null it receives each benchmark's
 * wall seconds in table order. */
std::vector<core::Characterization>
characterizePerBenchmark(const core::RunRequest &request,
                         const char *label,
                         std::vector<double> *perBenchSeconds = nullptr)
{
    runtime::Engine engine(1);
    std::vector<core::Characterization> out;
    for (const auto &name : core::table2Names()) {
        const auto start = std::chrono::steady_clock::now();
        const auto bm = core::makeBenchmark(name);
        out.push_back(core::characterize(*bm, request, engine));
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (perBenchSeconds)
            perBenchSeconds->push_back(seconds);
        std::cerr << "  [table2:" << label << "] " << name << " done ("
                  << out.back().workloadNames.size() << " workloads)\n";
    }
    return out;
}

bool
bitIdentical(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/** Bit-exact comparison of the deterministic model outputs. */
bool
identicalModelOutputs(const std::vector<core::Characterization> &a,
                      const std::vector<core::Characterization> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto &x = a[i];
        const auto &y = b[i];
        if (x.workloadNames != y.workloadNames ||
            x.checksumPerWorkload != y.checksumPerWorkload)
            return false;
        if (!bitIdentical(x.topdown.muGV, y.topdown.muGV) ||
            !bitIdentical(x.coverage.muGM, y.coverage.muGM))
            return false;
        for (std::size_t w = 0; w < x.topdownPerWorkload.size(); ++w) {
            const auto xa = x.topdownPerWorkload[w].asArray();
            const auto ya = y.topdownPerWorkload[w].asArray();
            for (std::size_t k = 0; k < xa.size(); ++k) {
                if (!bitIdentical(xa[k], ya[k]))
                    return false;
            }
        }
        if (x.coveragePerWorkload != y.coveragePerWorkload)
            return false;
    }
    return true;
}

/** Longest single-workload model run (the benchmark's critical
 * chain: its workloads are independent, so the slowest one bounds
 * the benchmark's latency on unlimited workers). */
double
longestChainSeconds(const core::Characterization &c)
{
    double chain = 0.0;
    for (const double s : c.secondsPerWorkload)
        chain = std::max(chain, s);
    return chain;
}

template <typename Fn>
double
timeSuite(std::vector<core::Characterization> &out, Fn &&run,
          const char *label)
{
    const auto start = std::chrono::steady_clock::now();
    out = run();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    std::cerr << "  [table2] " << label << ": " << seconds << " s\n";
    return seconds;
}

} // namespace

int
main(int argc, char **argv)
{
    int jobs = 8;
    if (const char *env = std::getenv("ALBERTA_JOBS")) {
        if (std::atoi(env) > 0)
            jobs = std::atoi(env);
    }
    std::string jsonPath = "BENCH_table2.json";
    std::string cacheDir;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
            jobs = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
        else if (std::strcmp(argv[i], "--cache-dir") == 0 &&
                 i + 1 < argc)
            cacheDir = argv[++i];
        else {
            std::cerr << "usage: bench_table2 [--jobs N] [--json PATH] "
                         "[--cache-dir DIR]\n";
            return 2;
        }
    }

    // A private scratch store unless the caller wants persistence.
    bool scratchStore = false;
    if (cacheDir.empty()) {
        cacheDir = (std::filesystem::temp_directory_path() /
                    ("alberta-bench-cache-" +
                     std::to_string(::getpid())))
                       .string();
        scratchStore = true;
    }

    std::cout << "Table II: workload counts, top-down summaries "
                 "(Eqs. 1-4), method-coverage\nsummary mu_g(M) "
                 "(Eq. 5), and refrate times for the Alberta "
                 "workload sets.\n\n";

    // 1. Serial baseline: one benchmark at a time on one job.
    // Per-benchmark wall seconds double as the longest-chain baseline.
    std::vector<core::Characterization> serial;
    std::vector<double> serialPerBench;
    core::RunRequest serialRequest;
    const double serialSeconds = timeSuite(
        serial,
        [&] {
            return characterizePerBenchmark(serialRequest, "serial",
                                            &serialPerBench);
        },
        "serial baseline");

    // 2. Suite-scheduled, cold: every (benchmark, workload) run across
    // all 15 benchmarks in one longest-first Executor batch, memory
    // and disk caches both empty. This pass also seeds the disk store.
    runtime::Engine engine = runtime::Engine::Builder()
                                 .jobs(jobs)
                                 .cacheDir(cacheDir)
                                 .build();
    core::RunRequest suiteRequest;
    std::vector<core::Characterization> suiteCold;
    const double suiteColdSeconds = timeSuite(
        suiteCold,
        [&] { return core::characterizeTable2(suiteRequest, engine); },
        "suite-scheduled cold");

    // 3. Same engine, warm memory cache: the memoized
    // re-characterization.
    std::vector<core::Characterization> warm;
    const double warmSeconds = timeSuite(
        warm,
        [&] { return core::characterizeTable2(suiteRequest, engine); },
        "warm (in-process)");

    // 4. Fresh engine, same directory: a second process's first run —
    // the memory cache starts empty, every result is served from disk.
    runtime::Engine second = runtime::Engine::Builder()
                                 .jobs(jobs)
                                 .cacheDir(cacheDir)
                                 .build();
    std::vector<core::Characterization> diskWarm;
    const double diskWarmSeconds = timeSuite(
        diskWarm,
        [&] { return core::characterizeTable2(suiteRequest, second); },
        "disk-warm (fresh engine)");

    const bool identical = identicalModelOutputs(serial, suiteCold) &&
                           identicalModelOutputs(serial, warm) &&
                           identicalModelOutputs(serial, diskWarm);


    support::Table table(core::table2Header());
    for (const auto &c : serial)
        table.addRow(core::table2Row(c));
    table.print(std::cout);

    std::cout << "\nColumns: mu_g as percent; sg dimensionless; "
                 "mu_g(V) = geomean of sg/mu_g over f,b,s,r;\n"
                 "mu_g(M) = geomean of per-method proportional "
                 "variation (percent-scale, +0.01 offset).\n";

    const runtime::ExecutorStats &stats = engine.stats();
    const runtime::PersistentCache *disk = second.disk();
    std::cout << "\nExecution engine (" << engine.jobs()
              << " jobs):\n"
              << "  serial baseline    : " << serialSeconds << " s\n"
              << "  suite-sched, cold  : " << suiteColdSeconds
              << " s (speedup "
              << serialSeconds / suiteColdSeconds << "x)\n"
              << "  parallel, warm     : " << warmSeconds
              << " s (speedup " << serialSeconds / warmSeconds
              << "x)\n"
              << "  disk-warm          : " << diskWarmSeconds
              << " s (speedup " << serialSeconds / diskWarmSeconds
              << "x)\n"
              << "  tasks run          : " << stats.tasksRun << "\n"
              << "  task queue / run   : " << stats.queueSeconds
              << " s / " << stats.runSeconds << " s\n"
              << "  cache hits/misses  : " << stats.cacheHits << "/"
              << stats.cacheMisses << " (" << engine.cache().size()
              << " entries)\n"
              << "  disk hits (2nd eng): " << disk->hits() << " ("
              << disk->corrupt() << " corrupt)\n"
              << "  model outputs      : "
              << (identical ? "bit-identical across all passes"
                            : "MISMATCH (bug!)")
              << "\n";

    std::ofstream json(jsonPath);
    json << "{\n"
         << "  \"bench\": \"table2\",\n"
         << "  \"jobs\": " << engine.jobs() << ",\n"
         << "  \"hardware_concurrency\": "
         << std::thread::hardware_concurrency() << ",\n"
         << "  \"benchmarks\": " << serial.size() << ",\n"
         << "  \"serial_seconds\": " << serialSeconds << ",\n"
         << "  \"suite_sched_cold_seconds\": " << suiteColdSeconds
         << ",\n"
         << "  \"parallel_warm_seconds\": " << warmSeconds << ",\n"
         << "  \"disk_warm_seconds\": " << diskWarmSeconds << ",\n"
         << "  \"speedup_suite_cold\": "
         << serialSeconds / suiteColdSeconds << ",\n"
         << "  \"speedup_parallel_warm\": "
         << serialSeconds / warmSeconds << ",\n"
         << "  \"speedup_disk_warm\": "
         << serialSeconds / diskWarmSeconds << ",\n"
         << "  \"per_benchmark\": [\n";
    for (std::size_t b = 0; b < serial.size(); ++b) {
        json << "    {\"name\": \"" << serial[b].benchmark
             << "\", \"serial_seconds\": " << serialPerBench[b]
             << ", \"longest_chain_serial_seconds\": "
             << longestChainSeconds(serial[b]) << "}"
             << (b + 1 < serial.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"cache_hits\": " << stats.cacheHits << ",\n"
         << "  \"cache_misses\": " << stats.cacheMisses << ",\n"
         << "  \"disk_hits\": " << disk->hits() << ",\n"
         << "  \"disk_corrupt\": " << disk->corrupt() << ",\n"
         << "  \"identical_model_outputs\": "
         << (identical ? "true" : "false") << "\n"
         << "}\n";
    std::cerr << "  [table2] wrote " << jsonPath << "\n";

    if (scratchStore) {
        std::error_code ec;
        std::filesystem::remove_all(cacheDir, ec);
    }

    return identical ? 0 : 1;
}
