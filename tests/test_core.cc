/** @file Tests for the core suite library (Table II pipeline). */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>

#include "core/report.h"
#include "core/suite.h"
#include "support/check.h"

namespace {

using namespace alberta;
using namespace alberta::core;

TEST(Suite, AllBenchmarksPresent)
{
    const auto all = allBenchmarks();
    EXPECT_EQ(all.size(), 16u); // 15 Table II rows + 525.x264_r
    for (const auto &bm : all) {
        EXPECT_FALSE(bm->name().empty());
        EXPECT_FALSE(bm->area().empty());
        EXPECT_GE(bm->workloads().size(), 3u);
    }
}

TEST(Suite, Table2NamesAllResolvable)
{
    EXPECT_EQ(table2Names().size(), 15u);
    for (const auto &name : table2Names()) {
        const auto bm = makeBenchmark(name);
        EXPECT_EQ(bm->name(), name);
    }
}

TEST(Suite, UnknownBenchmarkIsFatal)
{
    EXPECT_THROW(makeBenchmark("999.bogus_r"), support::FatalError);
}

TEST(Suite, WorkloadCountsMatchTable2)
{
    // The per-benchmark workload counts reported in the paper's
    // Table II.
    const std::pair<const char *, std::size_t> expected[] = {
        {"502.gcc_r", 19},       {"505.mcf_r", 7},
        {"507.cactuBSSN_r", 11}, {"510.parest_r", 8},
        {"511.povray_r", 10},    {"519.lbm_r", 30},
        {"520.omnetpp_r", 10},   {"521.wrf_r", 16},
        {"523.xalancbmk_r", 8},  {"526.blender_r", 16},
        {"531.deepsjeng_r", 12}, {"541.leela_r", 12},
        {"544.nab_r", 11},       {"548.exchange2_r", 13},
        {"557.xz_r", 12},
    };
    for (const auto &[name, count] : expected)
        EXPECT_EQ(makeBenchmark(name)->workloads().size(), count)
            << name;
}

TEST(Suite, EveryBenchmarkHasRefrateAndTrain)
{
    for (const auto &bm : allBenchmarks()) {
        bool refrate = false, train = false;
        for (const auto &w : bm->workloads()) {
            refrate |= w.isRefrate();
            train |= w.name == "train";
        }
        EXPECT_TRUE(refrate) << bm->name();
        EXPECT_TRUE(train) << bm->name();
    }
}

TEST(Characterize, ProducesConsistentSummary)
{
    const auto bm = makeBenchmark("505.mcf_r");
    RunRequest request;
    request.refrateRepetitions = 2;
    runtime::Engine engine(1);
    const Characterization c = characterize(*bm, request, engine);
    EXPECT_EQ(c.benchmark, "505.mcf_r");
    EXPECT_EQ(c.workloadNames.size(), 7u);
    EXPECT_EQ(c.topdownPerWorkload.size(), 7u);
    EXPECT_EQ(c.refrateRuns.size(), 2u);
    EXPECT_GT(c.refrateSeconds, 0.0);
    EXPECT_GT(c.topdown.muGV, 0.0);
    EXPECT_GT(c.coverage.muGM, 0.0);
    // Every per-workload top-down vector is normalized.
    for (const auto &r : c.topdownPerWorkload) {
        EXPECT_NEAR(r.frontend + r.backend + r.badspec + r.retiring,
                    1.0, 1e-9);
    }
}

TEST(Characterize, RowFormattingMatchesHeader)
{
    const auto bm = makeBenchmark("505.mcf_r");
    RunRequest request;
    request.refrateRepetitions = 1;
    runtime::Engine engine(1);
    const Characterization c = characterize(*bm, request, engine);
    const std::vector<Table2Field> fields = table2Fields(c);
    // The Markdown table's header and row carry one cell per field.
    std::istringstream lines(
        ReportWriter(ReportFormat::Markdown).table2({c}));
    std::string header, rule, row;
    std::getline(lines, header);
    std::getline(lines, rule);
    std::getline(lines, row);
    const auto bars = static_cast<std::ptrdiff_t>(fields.size() + 1);
    EXPECT_EQ(std::count(header.begin(), header.end(), '|'), bars);
    EXPECT_EQ(std::count(row.begin(), row.end(), '|'), bars);
    for (const Table2Field &f : fields) {
        EXPECT_NE(header.find("| " + f.column + " |"),
                  std::string::npos)
            << f.column;
        EXPECT_NE(row.find("| " + f.text + " |"), std::string::npos)
            << f.key;
    }
}

/** A benchmark whose output changes on every run, as a model with
 * hidden state would. */
class DriftingBenchmark : public runtime::Benchmark
{
  public:
    std::string name() const override { return "000.drift_r"; }
    std::string area() const override { return "Testing"; }

    std::vector<runtime::Workload>
    workloads() const override
    {
        runtime::Workload refrate;
        refrate.name = "refrate";
        return {refrate};
    }

    void
    run(const runtime::Workload &,
        runtime::ExecutionContext &ctx) const override
    {
        auto scope = ctx.method("drift_kernel", 64);
        for (int i = 0; i < 1000; ++i)
            ctx.machine().op(topdown::OpKind::IntAlu);
        ctx.consume(runs_.fetch_add(1));
    }

  private:
    mutable std::atomic<std::uint64_t> runs_{0};
};

TEST(Characterize, NondeterministicRefrateRepetitionsPanic)
{
    const DriftingBenchmark drifting;
    RunRequest request;
    request.refrateRepetitions = 2;
    runtime::Engine engine(1);
    EXPECT_THROW(characterize(drifting, request, engine),
                 support::PanicError);
}

} // namespace
