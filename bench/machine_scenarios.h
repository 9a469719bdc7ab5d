/**
 * @file
 * The five deterministic machine scenarios shared by bench_machine and
 * the topdown state-completeness tests. Each stresses a distinct fast
 * path of the accounting inner loop:
 *
 *   alu        bulk ops() reports, the pure accounting hot path
 *   branchy    patterned conditional branches (gshare + site profile)
 *   memory     scattered loads over an L2-resident working set
 *   streaming  stream() over long contiguous ranges (batched charges)
 *   mixed      interpreter-style dispatch: indirect + load per step
 *
 * The tests replay these exact call sequences to verify that
 * Machine::reset() covers the complete architectural state, so a new
 * kind of machine activity added to a scenario here is automatically
 * covered by that test too.
 */
#ifndef ALBERTA_BENCH_MACHINE_SCENARIOS_H
#define ALBERTA_BENCH_MACHINE_SCENARIOS_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/obs.h"
#include "support/rng.h"
#include "topdown/machine.h"

namespace alberta::bench {

/** Iterations per child span in the chunked scenarios. */
inline constexpr std::uint64_t kScenarioChunk = 256 * 1024;

/** Pure accounting: bulk ALU reports with periodic method switches. */
inline void
scenarioAlu(topdown::Machine &m, std::uint64_t scale, obs::Tracer *tracer,
            std::uint64_t parent)
{
    using topdown::OpKind;
    for (std::uint64_t rep = 0; rep < 200 * scale; ++rep) {
        obs::Span span(tracer, "alu_rep", "bench", parent);
        m.setMethod(1 + rep % 7, 2048 + 512 * (rep % 3),
                    support::mix64(rep % 7));
        m.ops(OpKind::IntAlu, 40000);
        m.ops(OpKind::IntMul, 8000);
    }
}

/** Patterned conditional branches: loop-like, biased, and noisy. */
inline void
scenarioBranchy(topdown::Machine &m, std::uint64_t scale,
                obs::Tracer *tracer, std::uint64_t parent)
{
    support::Rng rng(0xb7a2c001);
    const std::uint64_t total = 3'000'000 * scale;
    for (std::uint64_t base = 0; base < total; base += kScenarioChunk) {
        obs::Span span(tracer, "branchy_chunk", "bench", parent);
        const std::uint64_t end = std::min(total, base + kScenarioChunk);
        for (std::uint64_t i = base; i < end; ++i) {
            m.branch(static_cast<std::uint32_t>(i % 13),
                     (i & 7) != 0);                    // loop back-edge
            m.branch(200, rng.chance(0.9));            // biased branch
            m.branch(300 + i % 3, (i >> (i % 5)) & 1); // phase-shifting
        }
        span.note("iters", end - base);
    }
}

/** Scattered loads over ~128 KiB: L1-missing, L2-hitting. */
inline void
scenarioMemory(topdown::Machine &m, std::uint64_t scale,
               obs::Tracer *tracer, std::uint64_t parent)
{
    support::Rng rng(0x3e30a001);
    const std::uint64_t total = 4'000'000 * scale;
    for (std::uint64_t base = 0; base < total; base += kScenarioChunk) {
        obs::Span span(tracer, "memory_chunk", "bench", parent);
        const std::uint64_t end = std::min(total, base + kScenarioChunk);
        for (std::uint64_t i = base; i < end; ++i) {
            m.load(0x10000000ULL + rng.below(128 * 1024));
            if ((i & 15) == 0)
                m.store(0x20000000ULL + rng.below(64 * 1024));
        }
        span.note("iters", end - base);
    }
}

/** Long contiguous streams: the batched line-accounting path. */
inline void
scenarioStreaming(topdown::Machine &m, std::uint64_t scale,
                  obs::Tracer *tracer, std::uint64_t parent)
{
    using topdown::OpKind;
    for (std::uint64_t rep = 0; rep < 600 * scale; ++rep) {
        obs::Span span(tracer, "stream_rep", "bench", parent);
        const std::uint64_t base = 0x40000000ULL + (rep % 5) * (1 << 22);
        m.stream(OpKind::Load, base, 20000, 8);
        m.stream(OpKind::Store, base + (1 << 21), 10000, 8);
        m.ops(OpKind::FpAdd, 30000);
    }
}

/** Interpreter-style dispatch: indirect branch + load per step. */
inline void
scenarioMixed(topdown::Machine &m, std::uint64_t scale,
              obs::Tracer *tracer, std::uint64_t parent)
{
    using topdown::OpKind;
    support::Rng rng(0x371bed01);
    std::vector<std::uint64_t> program(4096);
    for (auto &op : program)
        op = rng.below(48);
    std::uint64_t pc = 0;
    const std::uint64_t total = 2'000'000 * scale;
    for (std::uint64_t base = 0; base < total; base += kScenarioChunk) {
        obs::Span span(tracer, "mixed_chunk", "bench", parent);
        const std::uint64_t end = std::min(total, base + kScenarioChunk);
        for (std::uint64_t i = base; i < end; ++i) {
            const std::uint64_t op = program[pc];
            m.load(0x750000000ULL + pc * 16);
            m.indirect(2, op);
            m.ops(OpKind::IntAlu, 2);
            if (m.branch(3, (i & 31) == 0))
                pc = (pc + op) % program.size();
            else
                pc = (pc + 1) % program.size();
        }
        span.note("iters", end - base);
    }
}

/** Scenario function pointer + name, for table-driven runners. */
struct MachineScenario
{
    const char *name;
    void (*run)(topdown::Machine &, std::uint64_t, obs::Tracer *,
                std::uint64_t);
};

/** All five scenarios in their canonical order. */
inline constexpr MachineScenario kMachineScenarios[] = {
    {"alu", scenarioAlu},           {"branchy", scenarioBranchy},
    {"memory", scenarioMemory},     {"streaming", scenarioStreaming},
    {"mixed", scenarioMixed},
};

} // namespace alberta::bench

#endif // ALBERTA_BENCH_MACHINE_SCENARIOS_H
