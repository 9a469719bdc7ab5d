/**
 * @file
 * Reproduces Figure 2: variation in function (method) coverage with
 * workload for 531.deepsjeng_r (left: stable coverage) versus
 * 557.xz_r (right: coverage shifts with the input's redundancy
 * structure). Prints the per-workload coverage matrix the paper's
 * bar graphs plot.
 */
#include <cstdio>
#include <iostream>

#include "core/suite.h"
#include "support/table.h"

namespace {

void
plotCoverage(const std::string &name,
             alberta::runtime::Engine &engine)
{
    using namespace alberta;
    const auto bm = core::makeBenchmark(name);
    core::RunRequest request;
    request.refrateRepetitions = 1;
    const core::Characterization c =
        core::characterize(*bm, request, engine);

    std::cout << "\n" << name << " (Figure 2 series)\n";
    std::vector<std::string> header = {"workload"};
    for (const auto &method : c.coverage.methods)
        header.push_back(method);
    support::Table table(header);
    for (std::size_t i = 0; i < c.workloadNames.size(); ++i) {
        std::vector<std::string> row = {c.workloadNames[i]};
        for (std::size_t j = 0; j < c.coverage.methods.size(); ++j) {
            row.push_back(
                support::formatFixed(c.coverage.matrix[i][j], 1));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);

    std::cout << "\nper-workload bars of the top method ("
              << c.coverage.methods.front() << ", % of time)\n";
    for (std::size_t i = 0; i < c.workloadNames.size(); ++i) {
        const int cols =
            static_cast<int>(c.coverage.matrix[i][0] / 2.0 + 0.5);
        std::printf("%-26s |%s\n", c.workloadNames[i].c_str(),
                    std::string(cols, '#').c_str());
    }
    std::cout << "mu_g(M) = "
              << support::formatFixed(c.coverage.muGM, 2) << "\n";
}

} // namespace

int
main()
{
    std::cout << "Figure 2: function coverage per workload — "
                 "531.deepsjeng_r vs 557.xz_r.\nExpected shape: "
                 "deepsjeng's distribution is stable across "
                 "workloads; xz's shifts\nwith compressibility and "
                 "dictionary fit.\n";
    alberta::runtime::Engine engine;
    plotCoverage("531.deepsjeng_r", engine);
    plotCoverage("557.xz_r", engine);
    return 0;
}
