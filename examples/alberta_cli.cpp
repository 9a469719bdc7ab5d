/**
 * @file
 * `alberta` — the suite's command-line front end. Subcommands:
 *
 *   alberta_cli list                      all benchmarks + areas
 *   alberta_cli workloads <benchmark>     workload names + params
 *   alberta_cli run <benchmark> <workload>
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
 *   --cache-dir DIR persist model results under DIR so later
 *                   *processes* start warm
 *                   (default: ALBERTA_CACHE_DIR when set, else no
 *                   persistence)
 *   --metrics       print the end-of-run metrics table to stderr:
 *                   the same rows the daemon's /metrics returns
 *
 * Every model run executes the full model exactly. run,
 * characterize, suite and report build one core::RunRequest — the
 * same serializable spec `alberta_serve` accepts over its socket —
 * and execute it through one shared runtime::Engine, so every flag
 * applies and `--format json` output here is byte-identical to the
 * daemon's payload for the same request and cache. `run` is a
 * one-workload characterization: refrate is timed by Table II's rule.
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

/** run / characterize / suite / report: one RunRequest executed
 * through the shared engine. JSON output prints the deliverable
 * payload verbatim (the daemon serves the same bytes); text and
 * Markdown render the characterized rows through the session's
 * ReportWriter. */
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
                  : request.kind == "run"  ? writer.run(rows[0])
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
    const auto c = core::characterize(*bm, request, engine);
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

constexpr const char *kUsageTail =
    "commands:\n"
    "  list                        all benchmarks + areas\n"
    "  workloads <benchmark>       workload names + params\n"
    "  run <benchmark> <workload>  one workload's measurement\n"
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
              &wantMetrics);

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
        support::fatalIf(emitRequest &&
                             (command == "list" ||
                              command == "workloads" ||
                              command == "cluster"),
                         "--emit-request: '", command,
                         "' builds no request");
        support::fatalIf(command == "run" && args.size() >= 4,
                         "run: the [reps] argument was removed; "
                         "refrate timing uses refrate_repetitions's "
                         "default of 3, as characterize does");
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
        // run, characterize, suite and report build one RunRequest;
        // --emit-request prints its daemon wire line instead of
        // executing it.
        const bool buildsRequest =
            command == "suite" ||
            ((command == "characterize" || command == "report") &&
             args.size() >= 2) ||
            (command == "run" && args.size() >= 3);
        if (command == "list")
            rc = cmdList();
        else if (command == "workloads" && args.size() >= 2)
            rc = cmdWorkloads(args[1]);
        else if (command == "cluster" && args.size() >= 3)
            rc = cmdCluster(args[1],
                            static_cast<std::size_t>(
                                support::parsePositiveInt(
                                    args[2], "cluster k", 1024)),
                            engine);
        else if (buildsRequest) {
            core::RunRequest request;
            request.kind = command;
            if (command != "suite")
                request.benchmark = args[1];
            if (command == "run")
                request.workload = args[2];
            request.priority = priority;
            request.deadlineMs = deadlineMs;
            if (emitRequest) {
                request.validate();
                std::cout << "{\"op\":\"run\",\"id\":1,\"run\":"
                          << request.toJson() << "}\n";
                rc = 0;
            } else
                rc = cmdRequest(request, engine, writer, format);
        } else
            std::cerr << parser.help();

        if (wantMetrics)
            std::cerr << writer.metrics(engine.metricsSnapshot());
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
