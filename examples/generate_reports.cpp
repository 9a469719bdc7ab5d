/**
 * @file
 * Produce the per-benchmark Markdown reports "distributed with the
 * Alberta Workloads": one file per benchmark with per-workload
 * measurements, coverage matrices, and the Section V summaries.
 *
 *   ./generate_reports [output-dir] [benchmark]
 *
 * The full run goes through the suite scheduler: every model run
 * across all 15 benchmarks is one longest-first Executor batch
 * (ALBERTA_JOBS controls the pool size, ALBERTA_CACHE_DIR persists
 * results across invocations); reports are emitted in Table II order
 * regardless.
 */
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/report.h"

int
main(int argc, char **argv)
{
    using namespace alberta;
    namespace fs = std::filesystem;

    const fs::path root = argc > 1 ? argv[1] : "alberta-reports";
    const std::string only = argc > 2 ? argv[2] : "";
    fs::create_directories(root);

    runtime::Engine engine = runtime::Engine::Builder()
                                 .cacheDirOption("", false)
                                 .build();
    const core::ReportWriter writer(core::ReportFormat::Markdown,
                                    &engine);
    core::RunRequest request;
    request.refrateRepetitions = 3;

    const auto writeReport = [&](const core::Characterization &c) {
        const fs::path file = root / (c.benchmark + ".md");
        std::ofstream out(file);
        out << writer.report(c);
        std::cout << "wrote " << file.string() << "\n";
    };

    if (!only.empty()) {
        const auto benchmark = core::makeBenchmark(only);
        writeReport(core::characterize(*benchmark, request, engine));
        return 0;
    }
    for (const auto &c : core::characterizeTable2(request, engine))
        writeReport(c);
    return 0;
}
