#include "core/suite.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "benchmarks/blender/benchmark.h"
#include "benchmarks/cactubssn/benchmark.h"
#include "benchmarks/deepsjeng/benchmark.h"
#include "benchmarks/exchange2/benchmark.h"
#include "benchmarks/gcc/benchmark.h"
#include "benchmarks/lbm/benchmark.h"
#include "benchmarks/leela/benchmark.h"
#include "benchmarks/mcf/benchmark.h"
#include "benchmarks/nab/benchmark.h"
#include "benchmarks/omnetpp/benchmark.h"
#include "benchmarks/parest/benchmark.h"
#include "benchmarks/povray/benchmark.h"
#include "benchmarks/wrf/benchmark.h"
#include "benchmarks/x264/benchmark.h"
#include "benchmarks/xalancbmk/benchmark.h"
#include "benchmarks/xz/benchmark.h"
#include "core/report.h"
#include "runtime/scheduler.h"
#include "support/check.h"

namespace alberta::core {

std::vector<std::unique_ptr<runtime::Benchmark>>
allBenchmarks()
{
    std::vector<std::unique_ptr<runtime::Benchmark>> out;
    out.push_back(std::make_unique<gcc::GccBenchmark>());
    out.push_back(std::make_unique<mcf::McfBenchmark>());
    out.push_back(std::make_unique<cactubssn::CactuBssnBenchmark>());
    out.push_back(std::make_unique<parest::ParestBenchmark>());
    out.push_back(std::make_unique<povray::PovrayBenchmark>());
    out.push_back(std::make_unique<lbm::LbmBenchmark>());
    out.push_back(std::make_unique<omnetpp::OmnetppBenchmark>());
    out.push_back(std::make_unique<wrf::WrfBenchmark>());
    out.push_back(std::make_unique<xalancbmk::XalancbmkBenchmark>());
    out.push_back(std::make_unique<x264::X264Benchmark>());
    out.push_back(std::make_unique<blender::BlenderBenchmark>());
    out.push_back(std::make_unique<deepsjeng::DeepsjengBenchmark>());
    out.push_back(std::make_unique<leela::LeelaBenchmark>());
    out.push_back(std::make_unique<nab::NabBenchmark>());
    out.push_back(std::make_unique<exchange2::Exchange2Benchmark>());
    out.push_back(std::make_unique<xz::XzBenchmark>());
    return out;
}

std::unique_ptr<runtime::Benchmark>
makeBenchmark(const std::string &name)
{
    for (auto &bm : allBenchmarks()) {
        if (bm->name() == name)
            return std::move(bm);
    }
    support::fatal("suite: unknown benchmark '", name, "'");
}

const std::vector<std::string> &
table2Names()
{
    static const std::vector<std::string> names = {
        "502.gcc_r",       "505.mcf_r",       "507.cactuBSSN_r",
        "510.parest_r",    "511.povray_r",    "519.lbm_r",
        "520.omnetpp_r",   "521.wrf_r",       "523.xalancbmk_r",
        "526.blender_r",   "531.deepsjeng_r", "541.leela_r",
        "544.nab_r",       "548.exchange2_r", "557.xz_r"};
    return names;
}

Characterization
characterize(const runtime::Benchmark &benchmark,
             const RunRequest &request, runtime::Engine *engine)
{
    Characterization c;
    c.benchmark = benchmark.name();
    c.area = benchmark.area();

    // Select the workloads up front so results can be gathered in
    // workload order no matter which worker finishes first.
    std::vector<runtime::Workload> workloads;
    for (auto &workload : benchmark.workloads()) {
        if (!request.includeTest && workload.name == "test")
            continue;
        workloads.push_back(std::move(workload));
    }
    support::fatalIf(workloads.empty(), "suite: ", benchmark.name(),
                     " has no workloads");

    const int repetitions = std::max(1, request.refrateRepetitions);
    std::size_t refrateIndex = workloads.size();
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        if (workloads[i].isRefrate()) {
            refrateIndex = i;
            break;
        }
    }

    // Resolve the execution session from the engine (or run a local
    // pool with no cache when none is given).
    runtime::Executor *executor =
        engine ? &engine->executor() : nullptr;
    runtime::ResultCache *cache = engine ? &engine->cache() : nullptr;
    obs::Tracer *tracer = engine ? &engine->tracer() : nullptr;

    obs::Span root(tracer, benchmark.name(), "characterize");
    root.note("workloads",
              static_cast<std::uint64_t>(workloads.size()));

    const std::uint64_t hitsBefore = cache ? cache->hits() : 0;
    const std::uint64_t missesBefore = cache ? cache->misses() : 0;

    std::optional<runtime::Executor> local;
    if (!executor) {
        local.emplace(request.jobs);
        executor = &*local;
    }
    const runtime::ExecutorStats statsBefore = executor->stats();

    // Phase 1: every workload except refrate runs through the pool;
    // each task owns a fresh ExecutionContext, so model outputs are
    // bit-identical to the serial path. The batch doubles as the
    // cache-probe batch: each task probes the result cache once.
    std::vector<std::size_t> modelIndices;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        if (i != refrateIndex)
            modelIndices.push_back(i);
    }
    std::vector<runtime::RunMeasurement> results(workloads.size());
    {
        obs::Span batch(tracer, "model_batch", "cache_probe",
                        root.id());
        const std::uint64_t batchId = batch.id();
        executor->parallelFor(
            modelIndices.size(), [&](std::size_t task) {
                const std::size_t i = modelIndices[task];
                obs::Span run(tracer, workloads[i].name, "model_run",
                              batchId);
                results[i] = runtime::measureCached(
                    benchmark, workloads[i], cache);
                run.note("uops", results[i].retiredOps);
            });
        batch.note("runs",
                   static_cast<std::uint64_t>(modelIndices.size()));
        if (cache) {
            batch.note("cache_hits", cache->hits() - hitsBefore);
            batch.note("cache_misses",
                       cache->misses() - missesBefore);
        }
    }

    // Phase 2: timed refrate repetitions on the (now quiesced) calling
    // thread; the first timed run doubles as refrate's model run.
    if (refrateIndex != workloads.size()) {
        const runtime::Workload &refrate = workloads[refrateIndex];
        runtime::CachedRun cached;
        if (cache && cache->lookup(benchmark, refrate, &cached) &&
            static_cast<int>(cached.timedSeconds.size()) >=
                repetitions) {
            obs::Span replay(tracer, "refrate_replay", "cache_probe",
                             root.id());
            replay.note("reps",
                        static_cast<std::uint64_t>(repetitions));
            results[refrateIndex] = cached.measurement;
            c.refrateRuns.assign(cached.timedSeconds.begin(),
                                 cached.timedSeconds.begin() +
                                     repetitions);
        } else {
            for (int rep = 0; rep < repetitions; ++rep) {
                obs::Span timed(tracer, refrate.name, "refrate_rep",
                                root.id());
                timed.note("rep", static_cast<std::uint64_t>(rep));
                const runtime::RunMeasurement m =
                    runtime::runOnce(benchmark, refrate);
                timed.note("seconds", m.seconds);
                if (rep == 0)
                    results[refrateIndex] = m;
                c.refrateRuns.push_back(m.seconds);
            }
            if (cache)
                cache->insert(benchmark, refrate,
                              {results[refrateIndex], c.refrateRuns});
        }
    }

    for (std::size_t i = 0; i < workloads.size(); ++i) {
        c.workloadNames.push_back(workloads[i].name);
        c.topdownPerWorkload.push_back(results[i].topdown);
        c.coveragePerWorkload.push_back(results[i].coverage);
        c.checksumPerWorkload.push_back(results[i].checksum);
        c.secondsPerWorkload.push_back(results[i].seconds);
    }

    if (engine) {
        const runtime::ExecutorStats after = executor->stats();
        runtime::ExecutorStats delta;
        delta.tasksRun = after.tasksRun - statsBefore.tasksRun;
        delta.queueSeconds =
            after.queueSeconds - statsBefore.queueSeconds;
        delta.runSeconds = after.runSeconds - statsBefore.runSeconds;
        delta.cacheHits = cache ? cache->hits() - hitsBefore : 0;
        delta.cacheMisses = cache ? cache->misses() - missesBefore : 0;
        for (const runtime::RunMeasurement &r : results)
            delta.uopsRetired += r.retiredOps;
        engine->mergeStats(delta);
        auto &registry = engine->metrics();
        registry.counter("characterize.calls").add(1);
        registry.counter("characterize.model_runs")
            .add(workloads.size());
        registry.counter("characterize.uops")
            .add(delta.uopsRetired);
        registry.histogram("characterize.run_seconds")
            .record(delta.runSeconds);
    }

    {
        obs::Span summarize(tracer, "summarize", "summarize",
                            root.id());
        c.topdown = stats::summarizeTopdown(c.topdownPerWorkload);
        c.coverage = stats::summarizeCoverage(c.coveragePerWorkload);
    }
    if (!c.refrateRuns.empty()) {
        double sum = 0.0;
        for (const double t : c.refrateRuns)
            sum += t;
        c.refrateSeconds = sum / c.refrateRuns.size();
    }
    return c;
}

namespace {

/** Per-benchmark gather slots for the suite scheduler: sized before
 * any task closure captures into them, so references stay stable. */
struct SuiteSlot
{
    std::vector<runtime::Workload> workloads;
    std::size_t refrateIndex = 0; //!< == workloads.size() when absent
    std::vector<runtime::RunMeasurement> results;
    std::vector<double> refrateRuns;
    bool insertRefrate = false; //!< refrate ran (vs cache replay)
};

} // namespace

std::vector<Characterization>
characterizeSuite(
    std::span<const std::unique_ptr<runtime::Benchmark>> benchmarks,
    const RunRequest &request, runtime::Engine *engine)
{
    std::vector<Characterization> out(benchmarks.size());
    if (benchmarks.empty())
        return out;

    runtime::ResultCache *cache = engine ? &engine->cache() : nullptr;
    obs::Tracer *tracer = engine ? &engine->tracer() : nullptr;
    runtime::CostLedger *ledger = engine ? &engine->ledger() : nullptr;
    runtime::Executor *executor =
        engine ? &engine->executor() : nullptr;
    std::optional<runtime::Executor> local;
    if (!executor) {
        local.emplace(request.jobs);
        executor = &*local;
    }

    const int repetitions = std::max(1, request.refrateRepetitions);
    const std::uint64_t hitsBefore = cache ? cache->hits() : 0;
    const std::uint64_t missesBefore = cache ? cache->misses() : 0;
    const runtime::ExecutorStats statsBefore = executor->stats();

    obs::Span root(tracer, "suite", "characterize_suite");
    root.note("benchmarks",
              static_cast<std::uint64_t>(benchmarks.size()));

    // Pass 1: select workloads and pre-size every gather slot.
    std::vector<SuiteSlot> slots(benchmarks.size());
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        const runtime::Benchmark &bm = *benchmarks[b];
        SuiteSlot &slot = slots[b];
        for (auto &workload : bm.workloads()) {
            if (!request.includeTest && workload.name == "test")
                continue;
            slot.workloads.push_back(std::move(workload));
        }
        support::fatalIf(slot.workloads.empty(), "suite: ", bm.name(),
                         " has no workloads");
        slot.refrateIndex = slot.workloads.size();
        for (std::size_t i = 0; i < slot.workloads.size(); ++i) {
            if (slot.workloads[i].isRefrate()) {
                slot.refrateIndex = i;
                break;
            }
        }
        slot.results.resize(slot.workloads.size());
    }

    // Pass 2: flatten everything runnable — refrate repetitions
    // included — into one global task list. Cached refrates replay
    // immediately and schedule nothing. Every task carries the
    // benchmark's uop-count hint so a cold ledger still dispatches
    // the big runs first (the ledger converts hints to seconds
    // through its persisted calibration rate).
    std::vector<runtime::SuiteTask> tasks;
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        const runtime::Benchmark &bm = *benchmarks[b];
        SuiteSlot &slot = slots[b];
        for (std::size_t i = 0; i < slot.workloads.size(); ++i) {
            const std::string key =
                bm.name() + '/' + slot.workloads[i].name;
            const double hint = bm.costHint(slot.workloads[i]);
            if (i != slot.refrateIndex) {
                runtime::SuiteTask task;
                task.costKey = key;
                task.category = "model_run";
                task.costHint = hint;
                task.run = [&slot, &bm, i, cache](obs::Span &span) {
                    slot.results[i] = runtime::measureCached(
                        bm, slot.workloads[i], cache);
                    span.note("uops", slot.results[i].retiredOps);
                };
                tasks.push_back(std::move(task));
                continue;
            }
            runtime::CachedRun cached;
            if (cache &&
                cache->lookup(bm, slot.workloads[i], &cached) &&
                static_cast<int>(cached.timedSeconds.size()) >=
                    repetitions) {
                obs::Span replay(tracer, "refrate_replay",
                                 "cache_probe", root.id());
                replay.note("benchmark", bm.name());
                slot.results[i] = cached.measurement;
                slot.refrateRuns.assign(cached.timedSeconds.begin(),
                                        cached.timedSeconds.begin() +
                                            repetitions);
                continue;
            }
            // Each timed repetition is its own task: it overlaps
            // other benchmarks' untimed runs instead of quiescing
            // the pool, and rep 0 doubles as refrate's model run.
            slot.insertRefrate = true;
            slot.refrateRuns.resize(repetitions);
            for (int rep = 0; rep < repetitions; ++rep) {
                runtime::SuiteTask task;
                task.costKey = key;
                task.category = "refrate_rep";
                task.costHint = hint;
                task.run = [&slot, &bm, i, rep](obs::Span &span) {
                    span.note("rep", static_cast<std::uint64_t>(rep));
                    const runtime::RunMeasurement m =
                        runtime::runOnce(bm, slot.workloads[i]);
                    span.note("seconds", m.seconds);
                    if (rep == 0)
                        slot.results[i] = m;
                    slot.refrateRuns[rep] = m.seconds;
                };
                tasks.push_back(std::move(task));
            }
        }
    }
    root.note("tasks", static_cast<std::uint64_t>(tasks.size()));

    runtime::Scheduler scheduler(
        executor, ledger, tracer,
        engine ? &engine->metrics() : nullptr);
    scheduler.run(std::move(tasks));

    // Gather: results sit in pre-sized per-benchmark slots in
    // workload order, so summaries are bit-identical to the serial
    // per-benchmark path.
    std::uint64_t totalWorkloads = 0;
    std::uint64_t totalUops = 0;
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        const runtime::Benchmark &bm = *benchmarks[b];
        SuiteSlot &slot = slots[b];
        if (slot.insertRefrate && cache) {
            cache->insert(bm, slot.workloads[slot.refrateIndex],
                          {slot.results[slot.refrateIndex],
                           slot.refrateRuns});
        }
        Characterization c;
        c.benchmark = bm.name();
        c.area = bm.area();
        for (std::size_t i = 0; i < slot.workloads.size(); ++i) {
            c.workloadNames.push_back(slot.workloads[i].name);
            c.topdownPerWorkload.push_back(slot.results[i].topdown);
            c.coveragePerWorkload.push_back(slot.results[i].coverage);
            c.checksumPerWorkload.push_back(slot.results[i].checksum);
            c.secondsPerWorkload.push_back(slot.results[i].seconds);
            totalUops += slot.results[i].retiredOps;
        }
        totalWorkloads += slot.workloads.size();
        {
            obs::Span summarize(tracer, bm.name(), "summarize",
                                root.id());
            c.topdown = stats::summarizeTopdown(c.topdownPerWorkload);
            c.coverage =
                stats::summarizeCoverage(c.coveragePerWorkload);
        }
        c.refrateRuns = slot.refrateRuns;
        if (!c.refrateRuns.empty()) {
            double sum = 0.0;
            for (const double t : c.refrateRuns)
                sum += t;
            c.refrateSeconds = sum / c.refrateRuns.size();
        }
        out[b] = std::move(c);
    }

    if (engine) {
        const runtime::ExecutorStats after = executor->stats();
        runtime::ExecutorStats delta;
        delta.tasksRun = after.tasksRun - statsBefore.tasksRun;
        delta.queueSeconds =
            after.queueSeconds - statsBefore.queueSeconds;
        delta.runSeconds = after.runSeconds - statsBefore.runSeconds;
        delta.cacheHits = cache ? cache->hits() - hitsBefore : 0;
        delta.cacheMisses = cache ? cache->misses() - missesBefore : 0;
        delta.uopsRetired = totalUops;
        engine->mergeStats(delta);
        auto &registry = engine->metrics();
        registry.counter("characterize.suite_runs").add(1);
        registry.counter("characterize.model_runs")
            .add(totalWorkloads);
        registry.counter("characterize.uops").add(totalUops);
        registry.histogram("characterize.run_seconds")
            .record(delta.runSeconds);
    }
    return out;
}

std::vector<Characterization>
characterizeTable2(const RunRequest &request, runtime::Engine *engine)
{
    std::vector<std::unique_ptr<runtime::Benchmark>> benchmarks;
    benchmarks.reserve(table2Names().size());
    for (const auto &name : table2Names())
        benchmarks.push_back(makeBenchmark(name));
    return characterizeSuite(benchmarks, request, engine);
}

std::vector<std::string>
table2Header()
{
    // Thin wrapper: the columns come from the same structured fields
    // that drive the JSON emission (core::table2Fields), computed on
    // a default Characterization since labels are value-independent.
    std::vector<std::string> out;
    for (const Table2Field &f : table2Fields(Characterization{}))
        out.push_back(f.column);
    return out;
}

std::vector<std::string>
table2Row(const Characterization &c)
{
    std::vector<std::string> out;
    for (const Table2Field &f : table2Fields(c))
        out.push_back(f.text);
    return out;
}

} // namespace alberta::core
