/**
 * @file
 * Microbenchmark for the top-down machine's accounting inner loop: the
 * path every modelled micro-op funnels through. Five deterministic
 * scenarios stress the distinct fast paths that PRs to src/topdown/
 * must keep both fast and bit-identical:
 *
 *   alu        bulk ops() reports, the pure accounting hot path
 *   branchy    patterned conditional branches (gshare + site profile)
 *   memory     scattered loads over an L2-resident working set
 *   streaming  stream() over long contiguous ranges (batched charges)
 *   mixed      interpreter-style dispatch: indirect + load per step
 *
 * Each scenario reports retired micro-ops per second of wall time, and
 * all model outputs (slot totals, cache and predictor counters) are
 * folded into one 64-bit signature. The signature depends only on the
 * model's decisions — never on timing — so scripts/check_build.sh can
 * compare it with the committed BENCH_machine.json to detect any
 * semantic change to the model, however small. The JSON record is
 * written only when --json names a file; otherwise the results are
 * only printed.
 *
 * The suite runs as three interleaved {null, traced} pass pairs after
 * one warm-up: tracing disabled (the null-sink fast path whose
 * overhead budget is < 2%) alternating with a JSON-lines span trace.
 * All six passes must produce the same signature — tracing can never
 * change model outputs — and the reported throughputs (and the
 * derived overhead) are medians over the three pairs, so a single
 * scheduling hiccup in either mode cannot push the overhead estimate
 * around (or below zero, as a one-shot measurement regularly did).
 *
 *   bench_machine [--json PATH] [--scale N] [--trace FILE]
 */
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "machine_scenarios.h"
#include "obs/obs.h"
#include "support/rng.h"
#include "topdown/machine.h"

namespace {

using namespace alberta;
using bench::kMachineScenarios;
using topdown::Machine;
using topdown::OpKind;

/** FNV-1a style fold, matching ExecutionContext::consume's shape. */
struct Signature
{
    std::uint64_t value = 0xcbf29ce484222325ULL;

    void
    fold(std::uint64_t v)
    {
        value = (value ^ v) * 0x100000001b3ULL;
        value ^= value >> 29;
    }

    void fold(double v) { fold(std::bit_cast<std::uint64_t>(v)); }
};

/** Fold every externally observable model output into @p sig. */
void
foldMachine(const Machine &m, Signature &sig)
{
    const auto &t = m.totals();
    sig.fold(t.frontend);
    sig.fold(t.backend);
    sig.fold(t.badspec);
    sig.fold(t.retiring);
    sig.fold(m.retiredOps());
    const auto &h = m.hierarchy();
    for (const topdown::Cache *c :
         {&h.l1d(), &h.l1i(), &h.l2(), &h.l3()}) {
        sig.fold(c->accesses());
        sig.fold(c->misses());
    }
    sig.fold(m.predictor().conditionals());
    sig.fold(m.predictor().mispredicts());
}

struct ScenarioResult
{
    std::string name;
    std::uint64_t uops = 0;
    double seconds = 0.0;

    double
    uopsPerSecond() const
    {
        return seconds > 0.0 ? static_cast<double>(uops) / seconds : 0.0;
    }
};

template <typename Fn>
ScenarioResult
runScenario(const char *name, Fn &&body, std::uint64_t scale,
            Signature &sig, obs::Tracer *tracer, const char *pass)
{
    Machine m;
    m.setMethod(1, 4096, support::mix64(1));
    const auto start = std::chrono::steady_clock::now();
    {
        obs::Span span(tracer, name, "bench");
        body(m, scale, tracer, span.id());
        span.note("uops", m.retiredOps());
    }
    ScenarioResult r;
    r.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    r.name = name;
    r.uops = m.retiredOps();
    foldMachine(m, sig);
    std::cerr << "  [machine:" << pass << "] " << name << ": " << r.uops
              << " uops in " << r.seconds << " s ("
              << r.uopsPerSecond() / 1e6 << " Muops/s)\n";
    return r;
}

struct PassResult
{
    std::vector<ScenarioResult> results;
    Signature sig;
    std::uint64_t totalUops = 0;
    double totalSeconds = 0.0;

    double
    overall() const
    {
        return totalSeconds > 0.0 ? totalUops / totalSeconds : 0.0;
    }
};

PassResult
runPass(std::uint64_t scale, obs::Tracer *tracer, const char *pass)
{
    PassResult p;
    for (const auto &scenario : kMachineScenarios) {
        p.results.push_back(runScenario(scenario.name, scenario.run,
                                        scale, p.sig, tracer, pass));
    }
    for (const auto &r : p.results) {
        p.totalUops += r.uops;
        p.totalSeconds += r.seconds;
    }
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath;
    std::string tracePath;
    std::uint64_t scale = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
        else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc)
            scale = std::strtoull(argv[++i], nullptr, 10);
        else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
            tracePath = argv[++i];
        else {
            std::cerr << "usage: bench_machine [--json PATH] "
                         "[--scale N] [--trace FILE]\n";
            return 2;
        }
    }
    if (scale == 0)
        scale = 1;

    // Warm-up pass (untimed): faults in code and data so the measured
    // passes below start from the same machine state and their
    // throughputs are comparable.
    (void)runPass(scale, nullptr, "warmup");

    // Three interleaved {null, traced} pairs. Interleaving puts both
    // modes through the same drift (frequency scaling, competing
    // load), and the median over three pairs discards the odd hiccup
    // that used to drive a one-shot overhead estimate negative.
    std::ostringstream discard;
    std::unique_ptr<obs::JsonLinesSink> sink;
    if (tracePath.empty())
        sink = std::make_unique<obs::JsonLinesSink>(discard);
    else
        sink = std::make_unique<obs::JsonLinesSink>(tracePath);
    obs::Tracer tracer(sink.get());

    constexpr int kPairs = 3;
    std::vector<PassResult> plainPasses;
    std::vector<PassResult> tracedPasses;
    for (int pair = 0; pair < kPairs; ++pair) {
        plainPasses.push_back(runPass(scale, nullptr, "null"));
        tracedPasses.push_back(runPass(scale, &tracer, "traced"));
    }
    sink->flush();

    const PassResult &plain = plainPasses.front();
    for (const auto *passes : {&plainPasses, &tracedPasses}) {
        for (const PassResult &p : *passes) {
            if (p.sig.value != plain.sig.value) {
                std::cerr << "bench_machine: FAIL: tracing changed "
                             "model outputs (signature mismatch)\n";
                return 1;
            }
        }
    }

    const auto medianOverall = [](std::vector<PassResult> &passes) {
        std::vector<double> rates;
        rates.reserve(passes.size());
        for (const PassResult &p : passes)
            rates.push_back(p.overall());
        std::sort(rates.begin(), rates.end());
        return rates[rates.size() / 2];
    };
    const double overall = medianOverall(plainPasses);
    const double tracedOverall = medianOverall(tracedPasses);
    const double overheadPercent =
        overall > 0.0 ? (1.0 - tracedOverall / overall) * 100.0 : 0.0;

    char sigHex[19];
    std::snprintf(sigHex, sizeof sigHex, "0x%016llx",
                  static_cast<unsigned long long>(plain.sig.value));

    std::cout << "Machine hot-path throughput: " << overall / 1e6
              << " Muops/s overall, model signature " << sigHex
              << "\n"
              << "Traced: " << tracedOverall / 1e6 << " Muops/s ("
              << sink->spansWritten() << " spans, "
              << overheadPercent << "% overhead)\n";

    // Per-scenario rates are medians over the null passes as well.
    const auto medianScenarioRate = [&](std::size_t scenario) {
        std::vector<double> rates;
        for (const PassResult &p : plainPasses)
            rates.push_back(p.results[scenario].uopsPerSecond());
        std::sort(rates.begin(), rates.end());
        return rates[rates.size() / 2];
    };

    if (jsonPath.empty())
        return 0;
    std::ofstream json(jsonPath);
    json << "{\n"
         << "  \"bench\": \"machine\",\n"
         << "  \"scale\": " << scale << ",\n"
         << "  \"pairs\": " << kPairs << ",\n";
    for (std::size_t s = 0; s < plain.results.size(); ++s) {
        json << "  \"" << plain.results[s].name
             << "_uops_per_second\": " << medianScenarioRate(s)
             << ",\n";
    }
    json << "  \"total_uops\": " << plain.totalUops << ",\n"
         << "  \"overall_uops_per_second\": " << overall << ",\n"
         << "  \"traced_overall_uops_per_second\": " << tracedOverall
         << ",\n"
         << "  \"tracing_overhead_percent\": " << overheadPercent
         << ",\n"
         << "  \"trace_spans\": " << sink->spansWritten() << ",\n"
         << "  \"signatures_identical\": true,\n"
         << "  \"model_signature\": \"" << sigHex << "\"\n"
         << "}\n";
    std::cerr << "  [machine] wrote " << jsonPath << "\n";
    return 0;
}
