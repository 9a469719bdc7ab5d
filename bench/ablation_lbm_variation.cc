/**
 * @file
 * Ablation C: the 519.lbm_r summarization pathology (Section V-B).
 * lbm retires almost no speculative work, so its bad-speculation
 * geometric mean is tiny; combined with counter-noise-level spread,
 * the tiny mean inflates V(s) = sigma_g/mu_g and therefore mu_g(V).
 * This bench recomputes mu_g(V) with the bad-speculation category
 * (a) included as measured, (b) floored harder, and (c) excluded,
 * showing the summary's sensitivity — the paper's "look into the
 * data" caveat, quantified.
 */
#include <cmath>
#include <iostream>

#include "core/suite.h"
#include "support/table.h"

namespace {

double
muGvExcludingBadspec(const alberta::stats::TopdownSummary &s)
{
    return std::pow(s.frontend.variation * s.backend.variation *
                        s.retiring.variation,
                    1.0 / 3.0);
}

} // namespace

int
main()
{
    using namespace alberta;

    std::cout << "Ablation C: small-mean category inflation of "
                 "mu_g(V) (519.lbm_r vs peers).\n\n";

    support::Table table({"Benchmark", "s.mu_g%", "s.sigma_g", "V(s)",
                          "mu_g(V) all", "mu_g(V) floored 1%",
                          "mu_g(V) w/o s"});

    runtime::Engine engine(1);

    for (const char *name :
         {"519.lbm_r", "507.cactuBSSN_r", "557.xz_r",
          "531.deepsjeng_r"}) {
        const auto bm = core::makeBenchmark(name);
        core::RunRequest request;
        request.refrateRepetitions = 1;
        const core::Characterization c =
            core::characterize(*bm, request, engine);

        // Recompute with a 1% floor on bad speculation.
        const stats::TopdownSummary floored = stats::summarizeTopdown(
            c.topdownPerWorkload, 0.01);

        table.addRow(
            {name,
             support::formatPercent(c.topdown.badspec.mean, 2),
             support::formatFixed(c.topdown.badspec.stddev, 2),
             support::formatFixed(c.topdown.badspec.variation, 1),
             support::formatFixed(c.topdown.muGV, 2),
             support::formatFixed(floored.muGV, 2),
             support::formatFixed(muGvExcludingBadspec(c.topdown),
                                  2)});
        std::cerr << "  [lbm-ablation] " << name << " done\n";
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: lbm/cactuBSSN show the largest "
                 "gap between 'all' and 'w/o s',\nconfirming the "
                 "inflation comes from the near-zero "
                 "bad-speculation mean.\n";
    return 0;
}
