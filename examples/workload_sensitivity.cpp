/**
 * @file
 * Rank the suite by workload sensitivity: compute the paper's
 * mu_g(V) and mu_g(M) summaries (Section V) for every benchmark and
 * sort, answering the paper's "which ones are which" question from
 * Section VII.
 *
 *   ./workload_sensitivity [--fast]
 */
#include <algorithm>
#include <iostream>
#include <string>

#include "core/suite.h"
#include "support/table.h"

int
main(int argc, char **argv)
{
    using namespace alberta;
    const bool fast = argc > 1 && std::string(argv[1]) == "--fast";

    struct Entry
    {
        std::string name;
        double muGV;
        double muGM;
        double badspecMean;
    };
    std::vector<Entry> entries;

    // One engine for the whole sweep: shared pool + result cache.
    runtime::Engine engine;
    for (const auto &name : core::table2Names()) {
        if (fast && entries.size() >= 5)
            break;
        const auto bm = core::makeBenchmark(name);
        core::RunRequest request;
        request.refrateRepetitions = 1;
        const core::Characterization c =
            core::characterize(*bm, request, engine);
        entries.push_back({name, c.topdown.muGV, c.coverage.muGM,
                           c.topdown.badspec.mean});
        std::cerr << "  characterized " << name << "\n";
    }

    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.muGV > b.muGV;
              });

    std::cout << "Benchmarks ranked by top-down workload sensitivity "
                 "mu_g(V):\n\n";
    support::Table table({"rank", "benchmark", "mu_g(V)", "mu_g(M)",
                          "note"});
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        std::string note;
        if (e.badspecMean < 0.005)
            note = "inflated: near-zero bad-speculation mean";
        else if (e.muGV < 5.5)
            note = "stable across workloads";
        table.addRow({std::to_string(i + 1), e.name,
                      support::formatFixed(e.muGV, 2),
                      support::formatFixed(e.muGM, 2), note});
    }
    table.print(std::cout);

    std::cout << "\nInterpretation (Section V): treat mu_g(V) as a "
                 "screening signal only — the\nflagged rows show the "
                 "small-geometric-mean pathology the paper warns "
                 "about.\n";
    return 0;
}
