/**
 * @file
 * Slot-accounting pipeline model implementing the Intel top-down
 * classification (front-end bound, back-end bound, bad speculation,
 * retiring) over micro-op streams emitted by the mini-benchmarks.
 *
 * This is the reproduction's stand-in for the PMU counters + VTune
 * top-down analysis used in the paper: it derives the same four
 * fractions from the same microarchitectural causes (fetch stalls,
 * mispredict squashes, memory and long-latency stalls), so workload-
 * induced shifts in behaviour are preserved even though absolute values
 * differ from real hardware.
 *
 * Every micro-op the benchmarks emit funnels through @ref ops, so the
 * accounting inner loop is organized as a header-inlined fast path with
 * cold out-of-line slow paths (see the "Model hot path" section of
 * DESIGN.md for the invariants):
 *  - a running grand total makes @ref totals / @ref ratios O(1);
 *  - @ref advanceCode consumes code bytes within the already-fetched
 *    instruction line without touching the cache hierarchy;
 *  - interval-boundary bookkeeping lives in a cold out-of-line path;
 *  - branch-site profiles use a flat open-addressing table with a
 *    last-site memo instead of `std::unordered_map`.
 */
#ifndef ALBERTA_TOPDOWN_MACHINE_H
#define ALBERTA_TOPDOWN_MACHINE_H

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "stats/summary.h"
#include "topdown/branch.h"
#include "topdown/cache.h"
#include "topdown/flatmap.h"
#include "topdown/uop.h"

namespace alberta::topdown {

/** Tunable model parameters (defaults approximate a 4-wide OoO core). */
struct MachineConfig
{
    int issueWidth = 4;          //!< allocation slots per cycle
    double decodeFrontend = 0.06;   //!< front-end slots per uop baseline
    double takenBranchFrontend = 0.5; //!< fetch-break cost per taken branch
    double callFrontend = 0.6;      //!< fetch-redirect cost per call
    double mispredictWrongPath = 8.0; //!< wrong-path issue cycles
    double mispredictRedirect = 5.0;  //!< post-recovery fetch-bubble cycles
    double memStallFactor = 0.35;   //!< fraction of miss latency not hidden
    double fetchStallFactor = 0.8;  //!< fraction of I-miss latency exposed
    /** Back-end slots charged per uop of each kind (dependency stalls). */
    std::array<double, kNumOpKinds> backendCost = {
        0.10, // IntAlu
        0.60, // IntMul
        16.0, // IntDiv
        0.80, // FpAdd
        1.00, // FpMul
        14.0, // FpDiv
        0.55, // Load (L1-hit baseline)
        0.15, // Store
        0.05, // Branch
        0.10, // Call
    };
};

/** Per-site conditional-branch profile collected for FDO. */
struct SiteProfile
{
    std::uint64_t taken = 0;
    std::uint64_t total = 0;
};

/** FDO code-layout decisions: per-method code-footprint scaling. */
struct CodeLayout
{
    /**
     * Stable method key -> multiplicative scale on the method's code
     * bytes. Hot/cold splitting yields scales < 1 for hot methods.
     */
    std::unordered_map<std::uint64_t, double> scale;
};

/**
 * The top-down slot-accounting machine.
 *
 * Benchmarks report micro-ops through the narrow API below; the machine
 * attributes allocation slots to the four top-down categories and to the
 * currently active method (for the paper's method-coverage metric).
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config = {});

    /** Discard all accounted slots and learned predictor/cache state. */
    void reset();

    /**
     * Switch slot attribution to method @p id.
     *
     * @param id dense method identifier assigned by the runtime
     * @param code_bytes approximate static code footprint of the method,
     *        used to model instruction-cache pressure
     * @param stable_key run-independent method identity (a hash of the
     *        method name); FDO hints and layout decisions are keyed on
     *        it so profiles transfer between runs. Defaults to @p id.
     */
    void setMethod(std::uint32_t id, std::uint32_t code_bytes,
                   std::uint64_t stable_key = ~0ULL);

    /** Report one micro-op of kind @p k (no memory, no control flow). */
    void
    op(OpKind k)
    {
        ops(k, 1);
    }

    /**
     * Report @p n consecutive micro-ops of kind @p k.
     *
     * Hot path: three fused per-category adds into the current method
     * and the running total, then code-footprint advance. Interval
     * recording (off in normal characterization runs) diverts to a
     * cold out-of-line path behind a single flag test.
     */
    void
    ops(OpKind k, std::uint64_t n)
    {
        if (n == 0)
            return;
        if (divert_) {
            opsWithIntervals(k, n);
            return;
        }
        account(k, n);
        advanceCode(n * 4);
    }

    /** Report one load from logical address @p addr. */
    void load(std::uint64_t addr) { memory(OpKind::Load, addr); }

    /** Report one store to logical address @p addr. */
    void store(std::uint64_t addr) { memory(OpKind::Store, addr); }

    /**
     * Report a streaming access of @p count elements of @p stride bytes
     * starting at @p addr (one cache access per line in the spanned
     * byte range, charged as one batched stall).
     */
    void stream(OpKind kind, std::uint64_t addr, std::uint64_t count,
                std::uint32_t stride);

    /**
     * Report one conditional branch at local site @p site with outcome
     * @p taken; returns @p taken so it can wrap a condition in place.
     */
    bool branch(std::uint32_t site, bool taken);

    /** Report one indirect branch (virtual dispatch, interpreter). */
    void indirect(std::uint32_t site, std::uint64_t target);

    /** Report one call / unconditional control transfer. */
    void
    call()
    {
        ops(OpKind::Call, 1);
        chargeFrontend(config_.callFrontend);
    }

    /**
     * Order-sensitive digest over the complete architectural state:
     * predictor, caches, slot attribution, code-fetch cursor, branch
     * profiles and interval bookkeeping. Equal digests mean the two
     * machines produce identical outputs for any identical future
     * call sequence; used to verify reset completeness.
     */
    std::uint64_t stateDigest() const;

    /** Sum of all slots across methods (O(1): kept incrementally). */
    const SlotCounts &totals() const { return total_; }

    /** The four top-down fractions of all accounted slots (O(1)). */
    stats::TopdownRatios ratios() const;

    /** Per-method slot counts indexed by method id. */
    const std::vector<SlotCounts> &perMethod() const { return methods_; }

    /** Estimated core cycles (total slots / issue width). */
    double cycles() const { return total_.total() / config_.issueWidth; }

    /** Total micro-ops retired. */
    std::uint64_t retiredOps() const { return retired_; }

    /** Enable or disable FDO profile collection (off by default). */
    void collectProfile(bool enabled) { profiling_ = enabled; }

    /**
     * Record execution intervals of @p uops_per_interval retired
     * micro-ops each (SimPoint-style phase analysis; 0 disables).
     * Must be set before any ops are reported.
     */
    void recordIntervals(std::uint64_t uops_per_interval);

    /**
     * Per-interval slot counts (deltas, one entry per completed
     * interval). A bulk @ref ops report that crosses several interval
     * boundaries contributes one interval per boundary, so phase
     * vectors are independent of the reporting stride. The trailing
     * partial interval is not included.
     */
    const std::vector<SlotCounts> &intervals() const
    {
        return intervals_;
    }

    /**
     * Collected conditional-branch profiles keyed by global site key,
     * materialized from the internal flat table (cold; intended for
     * end-of-run FDO harvesting).
     */
    std::unordered_map<std::uint64_t, SiteProfile> siteProfiles() const;

    /** Install FDO branch hints (nullptr to clear). */
    void setHints(const BranchHints *hints) { predictor_.setHints(hints); }

    /** Install FDO code-layout scaling (nullptr to clear). */
    void setLayout(const CodeLayout *layout) { layout_ = layout; }

    /** Branch predictor statistics (for tests and reports). */
    const BranchPredictor &predictor() const { return predictor_; }

    /** Memory hierarchy statistics (for tests and reports). */
    const MemoryHierarchy &hierarchy() const { return hierarchy_; }

    /** Global site key for the current method and local @p site:
     * derived from the stable method key so it is identical across
     * runs and workloads. */
    std::uint64_t
    siteKey(std::uint32_t site) const
    {
        return stableKey_ * 0x9e3779b97f4a7c15ULL + site;
    }

  private:
    /** Charge @p n uops of kind @p k (per-method + running total). */
    void
    account(OpKind k, std::uint64_t n)
    {
        const double dn = static_cast<double>(n);
        const double be = dn * config_.backendCost[static_cast<int>(k)];
        const double fe = dn * config_.decodeFrontend;
        SlotCounts &m = *current_;
        m.retiring += dn;
        m.backend += be;
        m.frontend += fe;
        total_.retiring += dn;
        total_.backend += be;
        total_.frontend += fe;
        retired_ += n;
    }

    void
    chargeFrontend(double slots)
    {
        current_->frontend += slots;
        total_.frontend += slots;
    }

    void
    chargeBackend(double slots)
    {
        current_->backend += slots;
        total_.backend += slots;
    }

    void
    chargeBadspec(double slots)
    {
        current_->badspec += slots;
        total_.badspec += slots;
    }

    void
    memory(OpKind kind, std::uint64_t addr)
    {
        ops(kind, 1);
        const double extra = hierarchy_.data(addr);
        if (extra > 0.0) {
            chargeBackend(extra * config_.issueWidth *
                          config_.memStallFactor);
        }
    }

    /**
     * Consume @p bytes of code. Fast path: the bytes fit inside the
     * instruction line fetched last, which is still L1I-resident (no
     * other fetch can have evicted it), so no cache access is needed
     * and no hit/miss decision is skipped that could change state.
     */
    void
    advanceCode(std::uint64_t bytes)
    {
        if (bytes <= fastCodeBytes_) {
            fastCodeBytes_ -= static_cast<std::uint32_t>(bytes);
            codeCursor_ += static_cast<std::uint32_t>(bytes);
            return;
        }
        advanceCodeSlow(bytes);
    }

    void advanceCodeSlow(std::uint64_t bytes);
    /** Cold ops() tail while interval recording is on. */
    void opsWithIntervals(OpKind k, std::uint64_t n);

    MachineConfig config_;
    MemoryHierarchy hierarchy_;
    BranchPredictor predictor_;
    const CodeLayout *layout_ = nullptr;

    std::vector<SlotCounts> methods_;
    SlotCounts *current_ = nullptr; //!< &methods_[method_], cached
    SlotCounts total_;              //!< running sum over all methods
    std::uint32_t method_ = 0;
    std::uint64_t stableKey_ = 0;
    std::uint64_t codeBase_ = 0;
    std::uint32_t codeBytes_ = 4096;
    std::uint32_t codeCursor_ = 0;
    std::uint64_t retired_ = 0;

    /** Absolute address of the last instruction line fetched (~0 =
     * none); fetches of this line are skipped — it is necessarily
     * still resident and most-recently-used in the L1I. */
    std::uint64_t lastFetchLine_ = ~0ULL;
    /** Bytes consumable from codeCursor_ without leaving the last
     * fetched line or wrapping the method's code footprint. */
    std::uint32_t fastCodeBytes_ = 0;

    bool profiling_ = false;
    FlatKeyMap<SiteProfile> profiles_;

    std::uint64_t intervalUops_ = 0;   //!< 0 = interval recording off
    std::uint64_t nextBoundary_ = 0;
    SlotCounts lastSnapshot_;
    std::vector<SlotCounts> intervals_;

    /** True when ops() must leave the fast path (interval recording
     * on); set by @ref recordIntervals. */
    bool divert_ = false;
};

} // namespace alberta::topdown

#endif // ALBERTA_TOPDOWN_MACHINE_H
