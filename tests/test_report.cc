/** @file Tests for the per-benchmark report renderer and the metrics
 * table. */
#include <gtest/gtest.h>

#include "core/report.h"

namespace {

using namespace alberta;
using namespace alberta::core;

/** The Markdown workload-behaviour report for @p c. */
std::string
renderReport(const Characterization &c)
{
    return ReportWriter(ReportFormat::Markdown).report(c);
}

Characterization
characterizeMcf()
{
    static const Characterization cached = [] {
        const auto bm = makeBenchmark("505.mcf_r");
        RunRequest request;
        request.refrateRepetitions = 2;
        runtime::Engine engine(1);
        return characterize(*bm, request, engine);
    }();
    return cached;
}

TEST(Report, ContainsAllSections)
{
    const std::string report = renderReport(characterizeMcf());
    EXPECT_NE(report.find("# 505.mcf_r"), std::string::npos);
    EXPECT_NE(report.find("## Per-workload top-down fractions"),
              std::string::npos);
    EXPECT_NE(report.find("## Method coverage"), std::string::npos);
    EXPECT_NE(report.find("## Section V summaries"),
              std::string::npos);
    EXPECT_NE(report.find("mu_g(V)"), std::string::npos);
    EXPECT_NE(report.find("mu_g(M)"), std::string::npos);
}

TEST(Report, ListsEveryWorkloadRow)
{
    const Characterization c = characterizeMcf();
    const std::string report = renderReport(c);
    for (const auto &name : c.workloadNames)
        EXPECT_NE(report.find("| " + name + " |"),
                  std::string::npos)
            << name;
}

TEST(Report, ListsCoverageMethods)
{
    const Characterization c = characterizeMcf();
    const std::string report = renderReport(c);
    for (const auto &method : c.coverage.methods)
        EXPECT_NE(report.find(method), std::string::npos) << method;
}

TEST(Report, FlagsSmallMeanPathology)
{
    // lbm has the near-zero bad-speculation mean; its report must
    // carry the Section V-B caveat. mcf's must not.
    const auto lbm = makeBenchmark("519.lbm_r");
    RunRequest request;
    request.refrateRepetitions = 1;
    runtime::Engine engine(1);
    const std::string lbmReport =
        renderReport(characterize(*lbm, request, engine));
    EXPECT_NE(lbmReport.find("Caveat"), std::string::npos);

    const std::string mcfReport = renderReport(characterizeMcf());
    EXPECT_EQ(mcfReport.find("Caveat"), std::string::npos);
}

TEST(Report, RecordsRefrateRuns)
{
    const std::string report = renderReport(characterizeMcf());
    EXPECT_NE(report.find("mean of 2 runs"), std::string::npos);
}

/** Text and Markdown print a counter as the whole number it is; JSON
 * keeps its numeric value. */
TEST(ReportWriter, MetricsPrintCountersAsIntegers)
{
    std::vector<obs::MetricSample> samples(2);
    samples[0].name = "model.uops_executed";
    samples[0].kind = "counter";
    samples[0].count = 50941847;
    samples[0].value = 50941847.0;
    samples[1].name = "executor.jobs";
    samples[1].kind = "gauge";
    samples[1].value = 4.0;

    for (const ReportFormat format :
         {ReportFormat::Text, ReportFormat::Markdown}) {
        const std::string table = ReportWriter(format).metrics(samples);
        EXPECT_NE(table.find(" 50941847 "), std::string::npos) << table;
        EXPECT_EQ(table.find("50941847."), std::string::npos) << table;
        EXPECT_NE(table.find("4.000000"), std::string::npos) << table;
    }
    EXPECT_EQ(ReportWriter(ReportFormat::Json).metrics(samples),
              "[{\"name\":\"model.uops_executed\",\"kind\":\"counter\","
              "\"value\":50941847},{\"name\":\"executor.jobs\","
              "\"kind\":\"gauge\",\"value\":4}]\n");
}

} // namespace
