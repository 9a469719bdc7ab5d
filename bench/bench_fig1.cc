/**
 * @file
 * Reproduces Figure 1: per-workload Intel top-down stacked fractions
 * for 523.xalancbmk_r (left: visibly workload-sensitive) versus
 * 557.xz_r (right: more stable). Prints the stacked series plus an
 * ASCII bar rendering.
 */
#include <iostream>

#include "core/suite.h"
#include "support/table.h"

namespace {

void
plotBenchmark(const std::string &name,
              alberta::runtime::Engine &engine)
{
    using namespace alberta;
    const auto bm = core::makeBenchmark(name);
    core::RunRequest request;
    request.refrateRepetitions = 1;
    const core::Characterization c =
        core::characterize(*bm, request, engine);

    std::cout << "\n" << name << " (Figure 1 series)\n";
    support::Table table(
        {"workload", "frontend%", "backend%", "badspec%",
         "retiring%"});
    for (std::size_t i = 0; i < c.workloadNames.size(); ++i) {
        const auto &r = c.topdownPerWorkload[i];
        table.addRow({c.workloadNames[i],
                      support::formatPercent(r.frontend, 1),
                      support::formatPercent(r.backend, 1),
                      support::formatPercent(r.badspec, 1),
                      support::formatPercent(r.retiring, 1)});
    }
    table.print(std::cout);

    // ASCII stacked bars: f='F', b='B', s='S', r='R', 50 columns.
    std::cout << "\nstacked bars (50 cols: F=frontend B=backend "
                 "S=badspec R=retiring)\n";
    for (std::size_t i = 0; i < c.workloadNames.size(); ++i) {
        const auto &r = c.topdownPerWorkload[i];
        const int fCols = static_cast<int>(r.frontend * 50 + 0.5);
        const int bCols = static_cast<int>(r.backend * 50 + 0.5);
        const int sCols = static_cast<int>(r.badspec * 50 + 0.5);
        const int rCols =
            std::max(0, 50 - fCols - bCols - sCols);
        std::string bar = std::string(fCols, 'F') +
                          std::string(bCols, 'B') +
                          std::string(sCols, 'S') +
                          std::string(rCols, 'R');
        std::printf("%-26s |%s|\n", c.workloadNames[i].c_str(),
                    bar.c_str());
    }
    std::cout << "mu_g(V) = "
              << support::formatFixed(c.topdown.muGV, 2) << "\n";
}

} // namespace

int
main()
{
    std::cout << "Figure 1: top-down fractions per workload — "
                 "523.xalancbmk_r vs 557.xz_r.\nExpected shape: "
                 "larger cross-workload spread for xalancbmk.\n";
    alberta::runtime::Engine engine;
    plotBenchmark("523.xalancbmk_r", engine);
    plotBenchmark("557.xz_r", engine);
    return 0;
}
