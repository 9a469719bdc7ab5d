/**
 * @file
 * Ablation B: the paper's motivating methodology experiment
 * (Sections I and VII). For several benchmarks, train FDO on the
 * SPEC "train" workload, then compare:
 *   - the self estimate (evaluate on the training workload — the
 *     degenerate train==eval practice the paper criticizes),
 *   - the classic single-eval estimate (train -> refrate), and
 *   - the cross-validated distribution over all Alberta workloads.
 * Expected shape: self >= classic estimate >= cross-validated mean,
 * with per-benchmark spread correlating with workload sensitivity.
 */
#include <iostream>

#include "core/suite.h"
#include "fdo/fdo.h"
#include "support/table.h"

int
main()
{
    using namespace alberta;

    std::cout << "Ablation B: FDO speedup estimates — single-train "
                 "methodology vs cross-validation.\n\n";

    support::Table table({"Benchmark", "self(train=eval)",
                          "train->refrate", "crossval geomean",
                          "crossval min", "crossval max",
                          "overstatement"});

    runtime::Engine engine;
    for (const char *name :
         {"505.mcf_r", "557.xz_r", "531.deepsjeng_r",
          "523.xalancbmk_r", "520.omnetpp_r", "548.exchange2_r"}) {
        const auto bm = core::makeBenchmark(name);
        const fdo::CrossValidation cv =
            fdo::crossValidate(*bm, "train", engine);
        table.addRow(
            {name, support::formatFixed(cv.selfSpeedup, 4),
             support::formatFixed(cv.refSpeedup, 4),
             support::formatFixed(cv.meanCross, 4),
             support::formatFixed(cv.minCross, 4),
             support::formatFixed(cv.maxCross, 4),
             support::formatFixed(cv.selfSpeedup / cv.meanCross,
                                  4)});
        std::cerr << "  [fdo] " << name << " done\n";
    }
    table.print(std::cout);
    std::cout << "\n'overstatement' = self speedup / cross-validated "
                 "geomean: > 1 means the\ntrain==eval methodology "
                 "overstates the benefit FDO delivers on unseen "
                 "workloads.\n";
    return 0;
}
