/**
 * @file
 * Set-associative LRU caches and a three-level memory hierarchy used by
 * the top-down model to derive front-end (instruction) and back-end
 * (data) stall slots.
 *
 * The access path is tuned for the model's dominant pattern — repeated
 * hits on a recently-used line — without changing any hit/miss or
 * eviction decision relative to a plain associative scan:
 *  - each set remembers its most-recently-used way, so a repeat hit
 *    costs one tag compare instead of a scan over all ways;
 *  - tags live in their own flat array (contiguous per set, one cache
 *    line for 8 ways), and the LRU stamps are only read on a miss.
 */
#ifndef ALBERTA_TOPDOWN_CACHE_H
#define ALBERTA_TOPDOWN_CACHE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/check.h"

namespace alberta::topdown {

/** A single set-associative cache with true-LRU replacement. */
class Cache
{
  public:
    /**
     * @param bytes total capacity in bytes (power of two)
     * @param ways associativity
     * @param line_bytes cache line size in bytes (power of two)
     */
    Cache(std::uint64_t bytes, int ways, int line_bytes);

    /** Access @p addr; returns true on hit and updates LRU state. */
    bool
    access(std::uint64_t addr)
    {
        ++stamp_;
        const std::uint64_t line = addr >> lineShift_;
        const std::uint64_t set = line & setMask_;
        const std::size_t base = static_cast<std::size_t>(set) * ways_;
        // MRU-first fast path: a repeat hit on the set's most recent
        // way only refreshes that way's stamp, which cannot change the
        // relative LRU order, so the full scan is equivalent but slower.
        const std::size_t mru = base + mru_[set];
        if (tags_[mru] == line) {
            lru_[mru] = stamp_;
            return true;
        }
        return accessSlow(line, set, base);
    }

    /** Forget all cached lines (used between workload runs). */
    void reset();

    /** Accesses observed since construction or reset (the LRU stamp
     * advances exactly once per access, so it doubles as the count). */
    std::uint64_t accesses() const { return stamp_; }
    /** Misses observed since construction or reset. */
    std::uint64_t misses() const { return misses_; }

    /**
     * Fold the complete replacement state — tags, LRU stamps, MRU
     * memos, counters — into @p seed. Two caches with equal digests
     * behave identically on every future access sequence; used by
     * `Machine::stateDigest` to verify reset completeness.
     */
    std::uint64_t digest(std::uint64_t seed) const;

  private:
    /** Full associative scan; called when the MRU way does not match. */
    bool accessSlow(std::uint64_t line, std::uint64_t set,
                    std::size_t base);

    int ways_;
    int lineShift_;
    std::uint64_t setMask_;
    std::uint64_t misses_ = 0;
    std::uint64_t stamp_ = 0;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> lru_;
    std::vector<std::uint8_t> mru_; //!< most-recently-used way per set
};

/** Latencies (cycles) of the modelled hierarchy levels. */
struct HierarchyLatency
{
    double l2 = 12.0;
    double l3 = 40.0;
    double memory = 200.0;
};

/**
 * L1 + shared L2/L3 lookup returning the extra latency beyond an L1 hit.
 *
 * Instruction and data sides own private L1s and share the L2/L3 of the
 * enclosing @ref MemoryHierarchy.
 */
class MemoryHierarchy
{
  public:
    MemoryHierarchy();

    /** Data access; returns extra cycles beyond the L1D hit latency. */
    double
    data(std::uint64_t addr)
    {
        if (l1d_.access(addr))
            return 0.0;
        return beyondL1(addr);
    }

    /** Instruction fetch; returns extra cycles beyond the L1I hit. */
    double
    fetch(std::uint64_t addr)
    {
        if (l1i_.access(addr))
            return 0.0;
        return beyondL1(addr);
    }

    /**
     * Data accesses for every 64-byte line in [@p first_line,
     * @p last_line]; returns the summed extra latency so a contiguous
     * stream charges its misses in one batch.
     */
    double
    dataRange(std::uint64_t first_line, std::uint64_t last_line)
    {
        double extra = 0.0;
        for (std::uint64_t line = first_line; line <= last_line; ++line)
            extra += data(line << 6);
        return extra;
    }

    /** Forget all cached state. */
    void reset();

    /** Fold the full state of all four caches into @p seed. */
    std::uint64_t digest(std::uint64_t seed) const;

    /** L1 data-cache statistics (for tests and reports). */
    const Cache &l1d() const { return l1d_; }
    /** L1 instruction-cache statistics. */
    const Cache &l1i() const { return l1i_; }
    /** Shared L2 statistics. */
    const Cache &l2() const { return l2_; }
    /** Shared L3 statistics. */
    const Cache &l3() const { return l3_; }

  private:
    double beyondL1(std::uint64_t addr);

    HierarchyLatency lat_;
    Cache l1d_;
    Cache l1i_;
    Cache l2_;
    Cache l3_;
};

} // namespace alberta::topdown

#endif // ALBERTA_TOPDOWN_CACHE_H
