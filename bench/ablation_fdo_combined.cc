/**
 * @file
 * Ablation E: combined profiling (Berube & Amaral, cited in Section
 * VI) — merging the profiles of several training workloads before
 * compiling the FDO artifacts. Compares, for several benchmarks:
 *   - single-workload training (the SPEC "train" input), vs
 *   - combined training over "train" plus two Alberta workloads,
 * both evaluated over all remaining workloads, as two experiments of
 * one fdo::crossValidateAll call on one engine. Expected shape: the
 * combined profile never transfers much worse, and repairs the
 * workload-sensitive cases where single-training misleads.
 */
#include <algorithm>
#include <cmath>
#include <iostream>

#include "core/suite.h"
#include "fdo/fdo.h"
#include "support/table.h"

namespace {

using namespace alberta;

/** Append the geometric-mean and the worst speedup of @p cv over its
 * evaluated workloads not in @p held to @p row. */
void
addSpeedupCells(std::vector<std::string> &row,
                const fdo::CrossValidation &cv,
                const std::vector<std::string> &held)
{
    double logSum = 0.0, worst = 1e30;
    int count = 0;
    for (std::size_t i = 0; i < cv.evalNames.size(); ++i) {
        if (std::count(held.begin(), held.end(), cv.evalNames[i]))
            continue;
        logSum += std::log(cv.evalSpeedups[i]);
        worst = std::min(worst, cv.evalSpeedups[i]);
        ++count;
    }
    row.push_back(support::formatFixed(std::exp(logSum / count), 4));
    row.push_back(support::formatFixed(worst, 4));
}

} // namespace

int
main()
{
    std::cout << "Ablation E: single-workload vs combined-profile "
                 "FDO training.\n\n";

    support::Table table({"Benchmark", "single geomean",
                          "single worst", "combined geomean",
                          "combined worst"});

    // Per benchmark: train on "train" alone, and on "train" plus the
    // first two Alberta workloads, held out from both evaluations.
    std::vector<std::unique_ptr<runtime::Benchmark>> benchmarks;
    std::vector<fdo::Experiment> experiments;
    for (const char *name :
         {"557.xz_r", "523.xalancbmk_r", "505.mcf_r",
          "531.deepsjeng_r"}) {
        benchmarks.push_back(core::makeBenchmark(name));
        std::vector<std::string> held = {"train"};
        for (const auto &w : benchmarks.back()->workloads()) {
            if (held.size() < 3 && w.isAlberta())
                held.push_back(w.name);
        }
        experiments.push_back({benchmarks.back().get(), {"train"}});
        experiments.push_back({benchmarks.back().get(), held});
    }

    runtime::Engine engine;
    const std::vector<fdo::CrossValidation> results =
        fdo::crossValidateAll(experiments, engine);
    for (std::size_t r = 0; r < results.size(); r += 2) {
        std::vector<std::string> row = {results[r].benchmark};
        for (const std::size_t i : {r, r + 1})
            addSpeedupCells(row, results[i], experiments[r + 1].train);
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: where training workloads "
                 "disagree, combining drops the\ncontested hints and "
                 "lifts worst-case transfer (xalancbmk). Where they "
                 "agree\non hints that unseen content then violates "
                 "(xz's random-content workloads),\ncombining cannot "
                 "help — more diverse training sets are needed, "
                 "which is\nexactly the paper's case for having many "
                 "workloads.\n";
    return 0;
}
