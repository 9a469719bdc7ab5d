/**
 * @file
 * `alberta` — the suite's command-line front end. Subcommands:
 *
 *   alberta_cli list                      all benchmarks + areas
 *   alberta_cli workloads <benchmark>     workload names + params
 *   alberta_cli run <benchmark> <workload> [reps]
 *   alberta_cli characterize <benchmark>  Table II row for one program
 *   alberta_cli suite                     full Table II through the
 *                                         suite scheduler
 *   alberta_cli report <benchmark>        behaviour report to stdout
 *   alberta_cli cluster <benchmark> <k>   Berube-style representatives
 *
 * Flags (before or after the subcommand; see --help):
 *
 *   --jobs N        worker threads for model runs (default:
 *                   ALBERTA_JOBS when set, else hardware concurrency)
 *   --format FMT    output format: text (default), md, or json
 *   --trace FILE    write a JSON-lines span trace of the run session
 *   --cache-dir DIR persist model results (and the scheduler's cost
 *                   ledger) under DIR so later *processes* start warm
 *                   (default: ALBERTA_CACHE_DIR when set, else no
 *                   persistence)
 *   --metrics       print the end-of-run metrics table to stderr
 *   --stats         print the one-line executor/cache/scheduler
 *                   summary to stderr on exit
 *
 * Every model run executes the full model exactly. The
 * characterizing commands build one core::RunRequest — the same
 * serializable spec `alberta_serve` accepts over its socket — and
 * execute it through one shared runtime::Engine, so `--format json`
 * output here is byte-identical to the daemon's payload for the same
 * request and cache.
 */
#include <iostream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/report.h"
#include "core/request.h"
#include "core/suite.h"
#include "support/argparse.h"
#include "support/check.h"
#include "support/table.h"
#include "support/text.h"

namespace {

using namespace alberta;

int
cmdList()
{
    support::Table table({"Benchmark", "Area", "#workloads"});
    for (const auto &bm : core::allBenchmarks()) {
        table.addRow({bm->name(), bm->area(),
                      std::to_string(bm->workloads().size())});
    }
    table.print(std::cout);
    return 0;
}

int
cmdWorkloads(const std::string &name)
{
    const auto bm = core::makeBenchmark(name);
    support::Table table({"Workload", "seed", "parameters"});
    for (const auto &w : bm->workloads()) {
        std::string params;
        for (const auto &[key, value] : w.params.entries()) {
            if (!params.empty())
                params += ", ";
            params += key + "=" + value;
        }
        table.addRow({w.name, std::to_string(w.seed), params});
    }
    table.print(std::cout);
    return 0;
}

int
cmdRun(const std::string &name, const std::string &workloadName,
       int reps)
{
    const auto bm = core::makeBenchmark(name);
    const auto workload = runtime::findWorkload(*bm, workloadName);
    const auto agg = runtime::runRepeated(*bm, workload, reps);
    const auto &m = agg.representative;
    std::cout << bm->name() << " / " << workload.name << "\n";
    std::cout << "  time      : "
              << support::formatFixed(agg.meanSeconds, 4)
              << " s (mean of " << reps << ")\n";
    std::cout << "  uops      : " << m.retiredOps << "\n";
    std::cout << "  top-down  : f="
              << support::formatPercent(m.topdown.frontend, 1)
              << "% b=" << support::formatPercent(m.topdown.backend, 1)
              << "% s=" << support::formatPercent(m.topdown.badspec, 1)
              << "% r="
              << support::formatPercent(m.topdown.retiring, 1)
              << "%\n";
    std::cout << "  checksum  : " << m.checksum << "\n";
    return 0;
}

/** characterize / suite / report: one RunRequest executed through the
 * shared engine. JSON output prints the deliverable payload verbatim
 * (the daemon serves the same bytes); text and Markdown render the
 * characterized rows through the session's ReportWriter. */
int
cmdRequest(core::RunRequest request, runtime::Engine &engine,
           const core::ReportWriter &writer,
           core::ReportFormat format)
{
    std::vector<core::Characterization> rows;
    const core::RunResult result =
        core::execute(request, engine, &rows);
    if (format == core::ReportFormat::Json) {
        std::cout << result.payload << '\n';
        return 0;
    }
    std::cout << (request.kind == "report" ? writer.report(rows[0])
                                           : writer.table2(rows));
    return 0;
}

int
cmdCluster(const std::string &name, std::size_t k,
           runtime::Engine &engine)
{
    const auto bm = core::makeBenchmark(name);
    core::RunRequest request;
    request.refrateRepetitions = 1;
    const auto c = core::characterize(*bm, request, &engine);
    const auto clustering = core::clusterWorkloads(c, k);
    support::Table table({"cluster", "representative", "members"});
    for (std::size_t cl = 0; cl < clustering.medoids.size(); ++cl) {
        std::string members;
        for (std::size_t p = 0; p < c.workloadNames.size(); ++p) {
            if (clustering.assignment[p] == cl) {
                if (!members.empty())
                    members += ' ';
                members += c.workloadNames[p];
            }
        }
        table.addRow({std::to_string(cl + 1),
                      c.workloadNames[clustering.medoids[cl]],
                      members});
    }
    table.print(std::cout);
    return 0;
}

void
printStats(runtime::Engine &engine)
{
    const runtime::ExecutorStats stats = engine.stats();
    std::cerr << "[stats] jobs=" << engine.jobs()
              << " tasks=" << stats.tasksRun
              << " queue=" << stats.queueSeconds << "s"
              << " run=" << stats.runSeconds << "s"
              << " cache_hits=" << stats.cacheHits
              << " cache_misses=" << stats.cacheMisses
              << " uops=" << stats.uopsRetired << " uops_per_sec="
              << support::formatFixed(stats.uopsPerSecond(), 0)
              << "\n";
    auto &metrics = engine.metrics();
    std::cerr << "[stats] scheduler_dispatched="
              << metrics.counter("scheduler.dispatched").value()
              << " scheduler_steals_avoided="
              << metrics.counter("scheduler.steals_avoided").value()
              << " ledger_entries=" << engine.ledger().size() << "\n";
    if (const runtime::PersistentCache *disk = engine.disk()) {
        std::cerr << "[stats] cache_dir=" << disk->dir()
                  << " disk_hits=" << disk->hits()
                  << " disk_misses=" << disk->misses()
                  << " disk_corrupt=" << disk->corrupt()
                  << " disk_writes=" << disk->writes() << "\n";
    }
}

constexpr const char *kUsageTail =
    "commands:\n"
    "  list                        all benchmarks + areas\n"
    "  workloads <benchmark>       workload names + params\n"
    "  run <benchmark> <workload> [reps]\n"
    "  characterize <benchmark>    Table II row for one program\n"
    "  suite                       full Table II (suite scheduler)\n"
    "  report <benchmark>          behaviour report to stdout\n"
    "  cluster <benchmark> <k>     representative workloads\n";

} // namespace

int
main(int argc, char **argv)
{
    int jobs = 0;       // 0 = ALBERTA_JOBS / hardware concurrency
    int priority = 0;   // queue priority when served by a daemon
    int deadlineMs = 0; // queue deadline when served by a daemon
    bool emitRequest = false;
    bool wantStats = false;
    bool wantMetrics = false;
    std::string tracePath;
    std::string cacheDir;
    bool cacheDirGiven = false;
    core::ReportFormat format = core::ReportFormat::Text;

    support::ArgParser parser("alberta_cli", kUsageTail);
    parser
        .positiveInt("--jobs", "N",
                     "worker threads for model runs (default: "
                     "ALBERTA_JOBS, else hardware concurrency)",
                     &jobs)
        .positiveInt("--priority", "N",
                     "queue priority 1-100 when the request is served "
                     "by alberta_serve (default: 0)",
                     &priority, core::RunRequest::kMaxPriority)
        .positiveInt("--deadline-ms", "N",
                     "queue deadline in ms when the request is served "
                     "by alberta_serve (default: none)",
                     &deadlineMs, core::RunRequest::kMaxDeadlineMs)
        .flag("--emit-request",
              "print the daemon wire line for the request instead of "
              "executing it (pipe to alberta_serve's socket)",
              &emitRequest)
        .custom("--format", "{text,md,json}",
                "output format (default: text)",
                [&](const std::string &value) {
                    format = core::parseReportFormat(value);
                })
        .option("--trace", "FILE",
                "write a JSON-lines span trace of the run session",
                &tracePath)
        .option("--cache-dir", "DIR",
                "persist model results under DIR (default: "
                "ALBERTA_CACHE_DIR, else no persistence)",
                &cacheDir, &cacheDirGiven)
        .flag("--metrics",
              "print the end-of-run metrics table to stderr",
              &wantMetrics)
        .flag("--stats",
              "print executor/cache/scheduler summaries to stderr",
              &wantStats);

    std::vector<std::string> args;
    try {
        args = parser.parse(argc, argv);
    } catch (const support::FatalError &e) {
        std::cerr << "alberta_cli: " << e.what() << "\n";
        return 2;
    }
    if (parser.helpRequested()) {
        std::cout << parser.help();
        return 0;
    }
    if (args.empty()) {
        std::cerr << parser.help();
        return 2;
    }
    const std::string &command = args[0];

    int rc = 2;
    try {
        // Engine::Builder::build raises FatalError for a cache
        // directory that cannot be created or is not a directory; the
        // catch below turns that into a usage error.
        runtime::Engine engine =
            runtime::Engine::Builder()
                .jobs(jobs)
                .traceFile(tracePath)
                .cacheDirOption(cacheDir, cacheDirGiven)
                .build();
        const core::ReportWriter writer(format, &engine);
        core::RunRequest request;
        request.priority = priority;
        request.deadlineMs = deadlineMs;
        // --emit-request: print the daemon's wire line for the
        // characterizing commands instead of executing.
        const auto maybeEmit = [&]() -> bool {
            if (!emitRequest)
                return false;
            request.validate();
            std::cout << "{\"op\":\"run\",\"id\":1,\"run\":"
                      << request.toJson() << "}\n";
            return true;
        };
        if (command == "list")
            rc = cmdList();
        else if (command == "workloads" && args.size() >= 2)
            rc = cmdWorkloads(args[1]);
        else if (command == "run" && args.size() >= 3)
            rc = cmdRun(args[1], args[2],
                        args.size() >= 4
                            ? static_cast<int>(
                                  support::parsePositiveInt(
                                      args[3], "run repetitions",
                                      1000))
                            : 3);
        else if (command == "characterize" && args.size() >= 2) {
            request.kind = "characterize";
            request.benchmark = args[1];
            rc = maybeEmit()
                     ? 0
                     : cmdRequest(request, engine, writer, format);
        } else if (command == "suite") {
            request.kind = "suite";
            rc = maybeEmit()
                     ? 0
                     : cmdRequest(request, engine, writer, format);
        } else if (command == "report" && args.size() >= 2) {
            request.kind = "report";
            request.benchmark = args[1];
            rc = maybeEmit()
                     ? 0
                     : cmdRequest(request, engine, writer, format);
        } else if (command == "cluster" && args.size() >= 3)
            rc = cmdCluster(args[1],
                            static_cast<std::size_t>(
                                support::parsePositiveInt(
                                    args[2], "cluster k", 1024)),
                            engine);
        else
            std::cerr << parser.help();

        if (wantMetrics)
            std::cerr << writer.metrics(engine.metricsSnapshot());
        if (wantStats)
            printStats(engine);
        engine.flushTrace();
    } catch (const support::FatalError &e) {
        // User error (bad argument, unknown benchmark/format/file).
        std::cerr << "alberta_cli: " << e.what() << "\n";
        rc = 2;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        rc = 1;
    }
    return rc;
}
