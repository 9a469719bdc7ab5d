/**
 * @file
 * Execution context handed to a benchmark run: bundles the top-down
 * machine, the method registry + coverage profiler, and a verification
 * checksum accumulator.
 */
#ifndef ALBERTA_RUNTIME_CONTEXT_H
#define ALBERTA_RUNTIME_CONTEXT_H

#include <cstdint>
#include <string_view>

#include "profile/coverage.h"
#include "topdown/machine.h"

namespace alberta::runtime {

/**
 * Per-run execution environment.
 *
 * Benchmarks instrument their hot code with @ref method scopes and
 * micro-op reports through @ref machine, and fold observable outputs
 * into @ref consume so the runner can verify determinism.
 */
class ExecutionContext
{
  public:
    ExecutionContext();

    /** The top-down slot-accounting machine for this run. */
    topdown::Machine &machine() { return machine_; }

    /**
     * Enter a named method scope (RAII); all micro-ops reported while
     * the scope is alive are attributed to @p name.
     *
     * @param code_bytes approximate static code footprint; fixed by the
     *        first use of @p name in this context
     */
    profile::MethodScope method(std::string_view name,
                                std::uint32_t code_bytes = 1024);

    /** Fold an observable output value into the run checksum. */
    void
    consume(std::uint64_t value)
    {
        checksum_ = (checksum_ ^ value) * 0x100000001b3ULL;
        checksum_ ^= checksum_ >> 29;
    }

    /** Fold a floating-point output into the run checksum (quantized). */
    void
    consume(double value)
    {
        consume(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(value * 4096.0)));
    }

    /** Verification checksum over consumed outputs. */
    std::uint64_t checksum() const { return checksum_; }

    /** Micro-ops retired by this run so far (machine passthrough). */
    std::uint64_t retiredOps() const { return machine_.retiredOps(); }

    /** Per-method coverage fractions observed so far. */
    stats::CoverageMap coverage() const
    {
        return profiler_.coverage(registry_);
    }

    /** Reset machine, profiler, and checksum for a fresh run. */
    void reset();

    /**
     * Install FDO artifacts before a run (pass nullptr to clear);
     * the pointed-to objects must outlive the run.
     */
    void
    installOptimization(const topdown::BranchHints *hints,
                        const topdown::CodeLayout *layout)
    {
        machine_.setHints(hints);
        machine_.setLayout(layout);
    }

  private:
    topdown::Machine machine_;
    profile::MethodRegistry registry_;
    profile::CoverageProfiler profiler_;
    std::uint64_t checksum_ = 0;
};

} // namespace alberta::runtime

#endif // ALBERTA_RUNTIME_CONTEXT_H
