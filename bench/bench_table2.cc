/**
 * @file
 * Reproduces Table II: for each of the paper's 15 benchmarks, the
 * workload count, geometric mean and geometric standard deviation of
 * the four top-down categories (f, b, s, r), the proportional-
 * variation summary mu_g(V) (Eq. 4), the method-coverage summary
 * mu_g(M) (Eq. 5), and the mean refrate time over three runs.
 *
 * Reproduction target (see EXPERIMENTS.md): the *shape* — which
 * benchmarks are workload-sensitive, the small-mean bad-speculation
 * inflation for lbm/cactuBSSN, and the coverage-variation ordering —
 * not the absolute hardware values.
 *
 * One characterizeTable2 call on a default engine (pool size from
 * ALBERTA_JOBS, else the hardware concurrency; no disk cache).
 */
#include <iostream>

#include "core/suite.h"
#include "support/table.h"

int
main()
{
    using namespace alberta;
    std::cout << "Table II: workload counts, top-down summaries "
                 "(Eqs. 1-4), method-coverage\nsummary mu_g(M) "
                 "(Eq. 5), and refrate times for the Alberta "
                 "workload sets.\n\n";

    runtime::Engine engine;
    const auto rows = core::characterizeTable2(core::RunRequest{}, engine);

    support::Table table(core::table2Header());
    for (const auto &c : rows)
        table.addRow(core::table2Row(c));
    table.print(std::cout);

    std::cout << "\nColumns: mu_g as percent; sg dimensionless; "
                 "mu_g(V) = geomean of sg/mu_g over f,b,s,r;\n"
                 "mu_g(M) = geomean of per-method proportional "
                 "variation (percent-scale, +0.01 offset).\n";
    return 0;
}
