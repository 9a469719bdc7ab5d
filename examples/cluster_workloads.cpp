/**
 * @file
 * Workload reduction by clustering (Berube et al., CGO 2009; paper
 * Section VI): characterize a benchmark, cluster its workloads in
 * top-down space, and print one representative per cluster — a
 * defensible subset when running all workloads is too expensive.
 *
 *   ./cluster_workloads [benchmark] [k]
 *   ./cluster_workloads 519.lbm_r 4
 */
#include <iostream>

#include "core/cluster.h"
#include "support/check.h"
#include "support/table.h"
#include "support/text.h"

int
main(int argc, char **argv)
{
    using namespace alberta;

    const std::string benchmarkName =
        argc > 1 ? argv[1] : "519.lbm_r";
    std::size_t k = 4;
    if (argc > 2) {
        try {
            k = static_cast<std::size_t>(
                support::parsePositiveInt(argv[2], "cluster k", 64));
        } catch (const support::FatalError &e) {
            std::cerr << "cluster_workloads: " << e.what() << "\n";
            return 2;
        }
    }

    const auto benchmark = core::makeBenchmark(benchmarkName);
    runtime::Engine engine;
    core::RunRequest request;
    request.refrateRepetitions = 1;
    const core::Characterization c =
        core::characterize(*benchmark, request, engine);

    const core::Clustering clustering =
        core::clusterWorkloads(c, k);

    std::cout << benchmarkName << ": "
              << c.workloadNames.size() << " workloads clustered "
              << "into " << k << " behaviour groups (cost "
              << support::formatFixed(clustering.cost, 3) << ")\n\n";

    for (std::size_t cl = 0; cl < clustering.medoids.size(); ++cl) {
        const std::size_t medoid = clustering.medoids[cl];
        std::cout << "cluster " << cl + 1 << " — representative: "
                  << c.workloadNames[medoid] << "\n";
        const auto &r = c.topdownPerWorkload[medoid];
        std::cout << "  top-down f/b/s/r = "
                  << support::formatPercent(r.frontend, 1) << "/"
                  << support::formatPercent(r.backend, 1) << "/"
                  << support::formatPercent(r.badspec, 1) << "/"
                  << support::formatPercent(r.retiring, 1) << "%\n";
        std::cout << "  members:";
        for (std::size_t p = 0; p < c.workloadNames.size(); ++p) {
            if (clustering.assignment[p] == cl)
                std::cout << ' ' << c.workloadNames[p];
        }
        std::cout << "\n\n";
    }

    std::cout << "Running only the " << k
              << " representatives approximates the full suite's "
                 "behaviour space\n(the Berube-style sampling the "
                 "paper recommends when workloads abound).\n";
    return 0;
}
