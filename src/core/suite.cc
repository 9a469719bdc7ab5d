#include "core/suite.h"

#include <algorithm>
#include <memory>
#include <utility>

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

namespace {

/** Per-benchmark gather slots for the suite scheduler: sized before
 * any task closure captures into them, so references stay stable. */
struct SuiteSlot
{
    std::vector<runtime::Workload> workloads;
    std::size_t refrateIndex = 0; //!< == workloads.size() when absent
    std::vector<runtime::RunMeasurement> results;
    std::vector<double> refrateRuns;
    /** (checksum, retired uops) of each timed refrate repetition. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> refrateOutputs;
    bool insertRefrate = false; //!< refrate ran (vs cache replay)
};

/** The one characterization path, over non-owning benchmarks: see
 * @ref characterizeSuite. */
std::vector<Characterization>
characterizeAll(std::span<const runtime::Benchmark *const> benchmarks,
                const RunRequest &request, runtime::Engine &engine)
{
    std::vector<Characterization> out(benchmarks.size());
    if (benchmarks.empty())
        return out;

    runtime::ResultCache &cache = engine.cache();
    obs::Tracer *tracer = &engine.tracer();

    const int repetitions = std::max(1, request.refrateRepetitions);

    obs::Span root(tracer, "suite", "characterize_suite");
    root.note("benchmarks",
              static_cast<std::uint64_t>(benchmarks.size()));

    // Pass 1: select workloads and pre-size every gather slot. A
    // "run" request keeps only the workload it names.
    std::vector<SuiteSlot> slots(benchmarks.size());
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        const runtime::Benchmark &bm = *benchmarks[b];
        SuiteSlot &slot = slots[b];
        if (request.kind == "run") {
            slot.workloads.push_back(
                runtime::findWorkload(bm, request.workload));
        } else {
            slot.workloads = bm.workloads();
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
    // benchmark's uop-count hint, which orders the batch.
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
                task.name = key;
                task.category = "model_run";
                task.costHint = hint;
                task.run = [&slot, &bm, i, &cache](obs::Span &span) {
                    slot.results[i] = runtime::measureCached(
                        bm, slot.workloads[i], &cache);
                    span.note("uops", slot.results[i].retiredOps);
                };
                tasks.push_back(std::move(task));
                continue;
            }
            runtime::CachedRun cached;
            if (cache.lookup(bm, slot.workloads[i], &cached,
                             static_cast<std::size_t>(repetitions))) {
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
            // other untimed runs instead of quiescing the pool, and
            // rep 0 doubles as refrate's model run.
            slot.insertRefrate = true;
            slot.refrateRuns.resize(repetitions);
            slot.refrateOutputs.resize(repetitions);
            for (int rep = 0; rep < repetitions; ++rep) {
                runtime::SuiteTask task;
                task.name = key;
                task.category = "refrate_rep";
                task.costHint = hint;
                task.run = [&slot, &bm, i, rep,
                             &cache](obs::Span &span) {
                    span.note("rep", static_cast<std::uint64_t>(rep));
                    const runtime::RunMeasurement m =
                        runtime::runOnce(bm, slot.workloads[i]);
                    cache.countRun(m.retiredOps);
                    span.note("seconds", m.seconds);
                    span.note("uops", m.retiredOps);
                    if (rep == 0)
                        slot.results[i] = m;
                    slot.refrateRuns[rep] = m.seconds;
                    slot.refrateOutputs[rep] = {m.checksum,
                                                m.retiredOps};
                };
                tasks.push_back(std::move(task));
            }
        }
    }
    root.note("tasks", static_cast<std::uint64_t>(tasks.size()));

    runtime::Scheduler scheduler(engine.executor(), tracer,
                                 &engine.metrics());
    scheduler.run(std::move(tasks));

    // Gather: results sit in pre-sized per-benchmark slots in
    // workload order, so summaries are bit-identical to a serial run.
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        const runtime::Benchmark &bm = *benchmarks[b];
        SuiteSlot &slot = slots[b];
        if (slot.insertRefrate) {
            for (const auto &outputs : slot.refrateOutputs) {
                support::panicIf(
                    outputs != slot.refrateOutputs.front(),
                    bm.name(), "/refrate: nondeterministic checksum "
                               "or uops across repetitions");
            }
            cache.insert(bm, slot.workloads[slot.refrateIndex],
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
            c.uopsPerWorkload.push_back(slot.results[i].retiredOps);
            c.secondsPerWorkload.push_back(slot.results[i].seconds);
        }
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

    engine.metrics().counter("characterize.calls").add(1);
    return out;
}

} // namespace

Characterization
characterize(const runtime::Benchmark &benchmark,
             const RunRequest &request, runtime::Engine &engine)
{
    const runtime::Benchmark *const one[] = {&benchmark};
    return std::move(characterizeAll(one, request, engine).front());
}

std::vector<Characterization>
characterizeSuite(
    std::span<const std::unique_ptr<runtime::Benchmark>> benchmarks,
    const RunRequest &request, runtime::Engine &engine)
{
    std::vector<const runtime::Benchmark *> raw;
    raw.reserve(benchmarks.size());
    for (const auto &bm : benchmarks)
        raw.push_back(bm.get());
    return characterizeAll(raw, request, engine);
}

std::vector<Characterization>
characterizeTable2(const RunRequest &request, runtime::Engine &engine)
{
    std::vector<std::unique_ptr<runtime::Benchmark>> benchmarks;
    benchmarks.reserve(table2Names().size());
    for (const auto &name : table2Names())
        benchmarks.push_back(makeBenchmark(name));
    return characterizeSuite(benchmarks, request, engine);
}

} // namespace alberta::core
