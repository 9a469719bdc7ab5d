/**
 * @file
 * Ablation E: combined profiling (Berube & Amaral, cited in Section
 * VI) — merging the profiles of several training workloads before
 * compiling the FDO artifacts. Compares, for several benchmarks:
 *   - single-workload training (the SPEC "train" input), vs
 *   - combined training over three Alberta workloads,
 * both evaluated over all remaining workloads. Expected shape: the
 * combined profile never transfers much worse, and repairs the
 * workload-sensitive cases where single-training misleads.
 */
#include <cmath>
#include <iostream>

#include "core/suite.h"
#include "fdo/fdo.h"
#include "support/table.h"

namespace {

using namespace alberta;

/** Baselines recur between the single and combined evaluations; the
 * cache computes each exactly once. */
obs::Registry baselineMetrics;
runtime::ResultCache baselineCache(baselineMetrics);

/** Geometric-mean speedup of @p opt over all workloads not in
 * @p excluded. */
double
geomeanSpeedup(const runtime::Benchmark &benchmark,
               const fdo::Optimization &opt,
               const std::vector<std::string> &excluded,
               double *worst)
{
    double logSum = 0.0;
    int count = 0;
    *worst = 1e30;
    for (const auto &w : benchmark.workloads()) {
        bool skip = false;
        for (const auto &name : excluded)
            skip |= w.name == name;
        if (skip)
            continue;
        const auto base =
            fdo::runOptimized(benchmark, w, nullptr, &baselineCache);
        const auto tuned = fdo::runOptimized(benchmark, w, &opt);
        const double speedup = base.cycles / tuned.cycles;
        logSum += std::log(speedup);
        *worst = std::min(*worst, speedup);
        ++count;
    }
    return std::exp(logSum / count);
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

    for (const char *name :
         {"557.xz_r", "523.xalancbmk_r", "505.mcf_r",
          "531.deepsjeng_r"}) {
        const auto bm = core::makeBenchmark(name);
        const auto workloads = bm->workloads();

        // Single training on "train".
        const auto train = runtime::findWorkload(*bm, "train");
        const fdo::Profile single =
            fdo::collectProfile(*bm, train);

        // Combined training: "train" plus the first two Alberta
        // workloads (held out from evaluation as well).
        fdo::Profile combined = single;
        std::vector<std::string> held = {"train"};
        for (const auto &w : workloads) {
            if (held.size() >= 3)
                break;
            if (w.isAlberta()) {
                combined.merge(fdo::collectProfile(*bm, w));
                held.push_back(w.name);
            }
        }

        const fdo::Optimization singleOpt =
            fdo::compileOptimization(single);
        const fdo::Optimization combinedOpt =
            fdo::compileOptimization(combined);

        double singleWorst = 0.0, combinedWorst = 0.0;
        const double singleMean =
            geomeanSpeedup(*bm, singleOpt, held, &singleWorst);
        const double combinedMean =
            geomeanSpeedup(*bm, combinedOpt, held, &combinedWorst);

        table.addRow({name, support::formatFixed(singleMean, 4),
                      support::formatFixed(singleWorst, 4),
                      support::formatFixed(combinedMean, 4),
                      support::formatFixed(combinedWorst, 4)});
        std::cerr << "  [combined] " << name << " done\n";
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
