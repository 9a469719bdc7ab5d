/**
 * @file
 * Reproduces Table I: the evolution from SPEC CPU INT 2006 to 2017 —
 * application areas, the paired benchmark names, the official times
 * the paper quotes (i7-6700K), and this reproduction's measured
 * refrate times: one `run` request each on a shared engine, so Table
 * II's timing rule (the mean of 3 pool-task repetitions).
 *
 * Absolute seconds differ (mini-kernels on a different machine); the
 * deliverable is the per-area mapping plus a measured-time column
 * whose relative ordering can be compared with the paper's.
 */
#include <iostream>

#include "core/request.h"
#include "core/suite.h"
#include "support/table.h"

namespace {

struct Row
{
    const char *area;
    const char *spec2017; //!< empty when absent from 2017
    const char *spec2006;
    int time2017;         //!< seconds, from the paper (0 = n/a)
    int time2006;
};

const Row kRows[] = {
    {"Perl interpreter", "500.perlbench_r", "400.perlbench", 542, 425},
    {"Compiler", "502.gcc_r", "403.gcc", 518, 346},
    {"Route planning", "505.mcf_r", "429.mcf", 633, 333},
    {"Discrete event simulation", "520.omnetpp_r", "471.omnetpp", 787,
     483},
    {"SML to HTML conversion", "523.xalancbmk_r", "483.xalancbmk", 323,
     221},
    {"Video compression", "525.x264_r", "464.h264ref", 379, 575},
    {"AI: alpha-beta tree search", "531.deepsjeng_r", "458.sjeng", 373,
     562},
    {"AI: Sudoku recursive solution", "548.exchange2_r", "", 498, 0},
    {"Data compression", "557.xz_r", "401.bzip2", 532, 681},
    {"AI: Go game playing", "541.leela_r", "445.gobmk", 586, 506},
    {"Search Gene Sequence", "", "456.hmmer", 0, 202},
    {"Physics: Quantum Computing", "", "462.libquantum", 0, 65},
    {"AI: path finding algorithm", "", "473.astar", 0, 461},
};

} // namespace

int
main()
{
    using namespace alberta;

    std::cout << "Table I: Evolution from SPEC CPU 2006 to SPEC CPU "
                 "2017 (INT)\n"
              << "Paper times: official submissions, i7-6700K. "
                 "Measured: this reproduction's\nmini-benchmark "
                 "refrate means over 3 pool-task repetitions, Table "
                 "II's timing rule\n(absolute values are not "
                 "comparable; the mapping and relative ordering\nare "
                 "the reproduction target).\n\n";

    support::Table table({"Application Area", "SPEC 2017", "SPEC 2006",
                          "2017 paper(s)", "2006 paper(s)",
                          "measured(s)"});

    runtime::Engine engine;
    double paperSum2017 = 0.0, paperSum2006 = 0.0, measuredSum = 0.0;
    int paperCount2017 = 0, paperCount2006 = 0, measuredCount = 0;

    for (const Row &row : kRows) {
        std::string measured = "-";
        // 500.perlbench_r is present in the suite table but has no
        // mini-benchmark (the paper created no workloads for it).
        if (row.spec2017[0] != '\0' &&
            std::string(row.spec2017) != "500.perlbench_r") {
            core::RunRequest request;
            request.kind = "run";
            request.benchmark = row.spec2017;
            request.workload = "refrate";
            std::vector<core::Characterization> rows;
            core::execute(request, engine, &rows);
            const double seconds = rows[0].refrateSeconds;
            measured = support::formatFixed(seconds, 3);
            measuredSum += seconds;
            ++measuredCount;
        }
        if (row.time2017 > 0) {
            paperSum2017 += row.time2017;
            ++paperCount2017;
        }
        if (row.time2006 > 0) {
            paperSum2006 += row.time2006;
            ++paperCount2006;
        }
        table.addRow(
            {row.area, row.spec2017, row.spec2006,
             row.time2017 ? std::to_string(row.time2017) : "-",
             row.time2006 ? std::to_string(row.time2006) : "-",
             measured});
    }
    table.addRow({"Arithmetic Average of Times", "", "",
                  support::formatFixed(paperSum2017 / paperCount2017,
                                       0),
                  support::formatFixed(paperSum2006 / paperCount2006,
                                       0),
                  support::formatFixed(measuredSum / measuredCount,
                                       3)});
    table.print(std::cout);
    return 0;
}
