#include "runtime/benchmark.h"

#include <chrono>
#include <utility>

#include "support/check.h"

namespace alberta::runtime {

RunMeasurement
runOnce(const Benchmark &benchmark, const Workload &workload)
{
    ExecutionContext context;
    const auto start = std::chrono::steady_clock::now();
    benchmark.run(workload, context);
    const auto stop = std::chrono::steady_clock::now();

    RunMeasurement m;
    m.seconds = std::chrono::duration<double>(stop - start).count();
    m.simCycles = context.machine().cycles();
    m.retiredOps = context.machine().retiredOps();
    m.checksum = context.checksum();
    m.topdown = context.machine().ratios();
    m.coverage = context.coverage();
    return m;
}

Workload
findWorkload(const Benchmark &benchmark, std::string_view name)
{
    for (auto &w : benchmark.workloads()) {
        if (w.name == name)
            return std::move(w); // the list is a temporary
    }
    support::fatal(benchmark.name(), " has no workload named '",
                   std::string(name), "'");
}

} // namespace alberta::runtime
