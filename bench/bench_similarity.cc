/**
 * @file
 * Benchmark-similarity study (Section VI related work, Phansalkar et
 * al.): characterize every benchmark, build per-benchmark feature
 * vectors from the top-down summaries, standardize, PCA to two
 * components, and print the similarity map plus nearest neighbours.
 */
#include <algorithm>
#include <cmath>
#include <iostream>

#include "core/suite.h"
#include "stats/pca.h"
#include "support/table.h"

int
main()
{
    using namespace alberta;

    std::cout << "Benchmark similarity via PCA over top-down "
                 "behaviour features\n(Eeckhout/Phansalkar-style "
                 "analysis from the paper's Section VI).\n\n";

    runtime::Engine engine(1);
    std::vector<std::string> names;
    stats::Matrix features;
    for (const auto &name : core::table2Names()) {
        const auto bm = core::makeBenchmark(name);
        core::RunRequest request;
        request.refrateRepetitions = 1;
        const core::Characterization c =
            core::characterize(*bm, request, engine);
        names.push_back(name);
        features.push_back({
            c.topdown.frontend.mean,
            c.topdown.backend.mean,
            c.topdown.badspec.mean,
            c.topdown.retiring.mean,
            std::log(c.topdown.muGV),
            std::log(c.coverage.muGM + 1e-3),
        });
        std::cerr << "  [similarity] " << name << " done\n";
    }

    const stats::Matrix standardized = stats::standardize(features);
    const stats::PcaResult pca =
        stats::principalComponents(standardized, 2);

    support::Table table({"Benchmark", "PC1", "PC2",
                          "nearest neighbour", "distance"});
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::size_t nearest = i;
        double best = 1e30;
        for (std::size_t j = 0; j < names.size(); ++j) {
            if (j == i)
                continue;
            const double d = stats::pcaDistance(
                pca.projections[i], pca.projections[j]);
            if (d < best) {
                best = d;
                nearest = j;
            }
        }
        table.addRow({names[i],
                      support::formatFixed(pca.projections[i][0], 2),
                      support::formatFixed(pca.projections[i][1], 2),
                      names[nearest],
                      support::formatFixed(best, 2)});
    }
    table.print(std::cout);
    std::cout << "\nvariance explained by 2 components: "
              << support::formatPercent(pca.varianceExplained, 1)
              << "%\n";
    return 0;
}
