/**
 * @file
 * The paper's methodology argument, end to end: evaluate FDO on one
 * benchmark using (1) the criticized single-train/single-eval recipe
 * and (2) cross-validation over the Alberta workloads, and show how
 * the first misestimates the second.
 *
 *   ./fdo_cross_validation [benchmark] [train-workload]
 *   ./fdo_cross_validation 557.xz_r train
 */
#include <iostream>

#include "core/suite.h"
#include "fdo/fdo.h"
#include "support/table.h"

int
main(int argc, char **argv)
{
    using namespace alberta;

    const std::string benchmarkName =
        argc > 1 ? argv[1] : "557.xz_r";
    const std::string trainName = argc > 2 ? argv[2] : "train";

    const auto benchmark = core::makeBenchmark(benchmarkName);
    std::cout << "FDO cross-validation on " << benchmark->name()
              << ", training workload '" << trainName << "'\n\n";

    // Step 1: instrumented training run -> profile.
    const auto train = runtime::findWorkload(*benchmark, trainName);
    const fdo::Profile profile =
        fdo::collectProfile(*benchmark, train);
    std::cout << "profile: " << profile.sites.size()
              << " branch sites, " << profile.methodHotness.size()
              << " methods, " << profile.retiredOps
              << " uops observed\n";

    // Step 2: compile the profile into branch hints + code layout.
    const fdo::Optimization opt = fdo::compileOptimization(profile);
    std::cout << "optimization: " << opt.hintedSites
              << " hinted branch sites, " << opt.hotMethods
              << " hot methods laid out\n\n";

    // Step 3: evaluate everywhere, sharing one run-session engine so
    // baseline model runs are memoized across evaluations.
    runtime::Engine engine;
    const fdo::CrossValidation cv =
        fdo::crossValidate(*benchmark, trainName, engine);

    support::Table table({"evaluation workload", "speedup"});
    table.addRow({trainName + "  (train==eval)",
                  support::formatFixed(cv.selfSpeedup, 4)});
    for (std::size_t i = 0; i < cv.evalNames.size(); ++i) {
        table.addRow({cv.evalNames[i],
                      support::formatFixed(cv.evalSpeedups[i], 4)});
    }
    table.print(std::cout);

    std::cout << "\nsingle-eval estimate (train->refrate): "
              << support::formatFixed(cv.refSpeedup, 4) << "\n";
    std::cout << "cross-validated geomean               : "
              << support::formatFixed(cv.meanCross, 4) << "\n";
    std::cout << "cross-validated range                 : ["
              << support::formatFixed(cv.minCross, 4) << ", "
              << support::formatFixed(cv.maxCross, 4) << "]\n";
    if (cv.selfSpeedup > cv.meanCross) {
        std::cout << "\nThe train==eval estimate overstates the "
                     "cross-workload benefit by "
                  << support::formatFixed(
                         (cv.selfSpeedup / cv.meanCross - 1.0) *
                             100.0,
                         2)
                  << "% — the paper's Section I critique.\n";
    }
    return 0;
}
