/**
 * @file
 * Pins every `run` payload through core::execute: for each Table II
 * (benchmark, workload) pair, the one-workload characterization a
 * "run" request performs must render exactly the bytes recorded in
 * perfbench/reference.json's `runs` entries (the payloads the served
 * run benchmark checks). Parameterized per benchmark so `ctest -j`
 * spreads the cost.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/request.h"
#include "core/suite.h"
#include "support/json.h"

namespace {

using namespace alberta;

/** (benchmark, workload) -> reference payload, read once. */
const std::map<std::pair<std::string, std::string>, std::string> &
referencePayloads()
{
    static const auto payloads = [] {
        std::ifstream in(ALBERTA_REFERENCE_JSON);
        std::ostringstream text;
        text << in.rdbuf();
        const support::JsonValue reference =
            support::parseJson(text.str());
        std::map<std::pair<std::string, std::string>, std::string> out;
        for (const auto &run : reference.at("runs").asArray()) {
            const auto &fields = run.asArray();
            out[{fields.at(0).asString(), fields.at(1).asString()}] =
                fields.at(2).asString();
        }
        return out;
    }();
    return payloads;
}

core::RunRequest
runRequest(const std::string &benchmark, const std::string &workload)
{
    core::RunRequest request;
    request.kind = "run";
    request.benchmark = benchmark;
    request.workload = workload;
    request.refrateRepetitions = 1;
    return request;
}

class RunPayloads : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RunPayloads, MatchReference)
{
    const std::string name = GetParam();
    runtime::Engine engine(1);
    std::size_t checked = 0;
    for (const auto &w : core::makeBenchmark(name)->workloads()) {
        const auto it = referencePayloads().find({name, w.name});
        ASSERT_NE(it, referencePayloads().end())
            << name << "/" << w.name << " has no reference payload";
        std::vector<core::Characterization> rows;
        const core::RunResult result =
            core::execute(runRequest(name, w.name), engine, &rows);
        EXPECT_EQ(result.payload, it->second) << name << "/" << w.name;
        ASSERT_EQ(rows.size(), 1u);
        EXPECT_EQ(rows[0].workloadNames,
                  std::vector<std::string>{w.name});
        ++checked;
    }
    EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, RunPayloads, ::testing::ValuesIn(core::table2Names()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '.')
                c = '_';
        }
        return name;
    });

} // namespace
