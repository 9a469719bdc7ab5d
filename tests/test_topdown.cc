/** @file Tests for the top-down pipeline model substrate. */
#include <gtest/gtest.h>

#include "machine_scenarios.h"
#include "support/check.h"
#include "support/rng.h"
#include "topdown/branch.h"
#include "topdown/cache.h"
#include "topdown/machine.h"

namespace {

using namespace alberta::topdown;

TEST(Cache, HitsAfterFill)
{
    Cache c(1024, 2, 64);
    EXPECT_FALSE(c.access(0));
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(63));  // same line
    EXPECT_FALSE(c.access(64)); // next line
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEvictsOldestWay)
{
    // 2-way, 64B lines, 1024B -> 8 sets. Lines 0, 8, 16 map to set 0.
    Cache c(1024, 2, 64);
    c.access(0 << 6);
    c.access(8 << 6);
    c.access(0 << 6);      // refresh line 0
    c.access(16 << 6);     // evicts line 8 (LRU)
    EXPECT_TRUE(c.access(0 << 6));
    EXPECT_FALSE(c.access(8 << 6));
}

TEST(Cache, WorkingSetLargerThanCapacityThrashes)
{
    Cache c(1024, 2, 64);
    const int lines = 64; // 4 KiB working set in a 1 KiB cache
    for (int pass = 0; pass < 3; ++pass)
        for (int i = 0; i < lines; ++i)
            c.access(static_cast<std::uint64_t>(i) << 6);
    EXPECT_GT(static_cast<double>(c.misses()) / c.accesses(), 0.9);
}

TEST(Cache, SmallWorkingSetFitsAfterWarmup)
{
    Cache c(32 * 1024, 8, 64);
    for (int pass = 0; pass < 10; ++pass)
        for (int i = 0; i < 64; ++i)
            c.access(static_cast<std::uint64_t>(i) << 6);
    EXPECT_EQ(c.misses(), 64u);
}

TEST(Cache, ResetForgetsContents)
{
    Cache c(1024, 2, 64);
    c.access(0);
    c.reset();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_FALSE(c.access(0));
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache(1000, 2, 64), alberta::support::FatalError);
}

TEST(Hierarchy, MissLatencyGrowsWithDistance)
{
    MemoryHierarchy h;
    const double first = h.data(0);
    const double second = h.data(0);
    EXPECT_GT(first, 0.0);   // cold miss reaches memory
    EXPECT_EQ(second, 0.0);  // L1 hit
}

TEST(Hierarchy, L2HitCheaperThanMemory)
{
    MemoryHierarchy h;
    const double cold = h.data(1 << 20);
    // Evict from L1 (32 KiB, 8-way) but not from L2 by touching 64 KiB.
    for (int i = 1; i <= 1024; ++i)
        h.data((1 << 20) + static_cast<std::uint64_t>(i) * 64);
    const double l2Hit = h.data(1 << 20);
    EXPECT_GT(l2Hit, 0.0);
    EXPECT_LT(l2Hit, cold);
}

TEST(Branch, LearnsStableDirection)
{
    BranchPredictor p;
    for (int i = 0; i < 1000; ++i)
        p.conditional(7, true);
    EXPECT_LT(p.mispredicts(), 5u);
}

TEST(Branch, RandomDirectionMispredictsOften)
{
    BranchPredictor p;
    std::uint64_t state = 123;
    for (int i = 0; i < 4000; ++i)
        p.conditional(7, alberta::support::splitmix64(state) & 1);
    const double rate =
        static_cast<double>(p.mispredicts()) / p.conditionals();
    EXPECT_GT(rate, 0.3);
}

TEST(Branch, LearnsAlternatingPatternViaHistory)
{
    BranchPredictor p;
    for (int i = 0; i < 4000; ++i)
        p.conditional(9, i % 2 == 0);
    const double rate =
        static_cast<double>(p.mispredicts()) / p.conditionals();
    EXPECT_LT(rate, 0.05);
}

TEST(Branch, HintsBypassDynamicPrediction)
{
    BranchHints hints;
    hints.direction[42] = true;
    BranchPredictor p;
    p.setHints(&hints);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(p.conditional(42, true));
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(p.conditional(42, false));
    EXPECT_EQ(p.mispredicts(), 100u);
}

TEST(Branch, IndirectLearnsRepeatingTargetSequences)
{
    // A repeating dispatch pattern (like an interpreter loop) should
    // become nearly perfectly predictable via target history.
    BranchPredictor p;
    const std::uint64_t pattern[4] = {100, 200, 100, 300};
    for (int warm = 0; warm < 64; ++warm)
        for (const auto target : pattern)
            p.indirect(1, target);
    const auto before = p.mispredicts();
    for (int i = 0; i < 64; ++i)
        for (const auto target : pattern)
            p.indirect(1, target);
    EXPECT_EQ(p.mispredicts(), before);
}

TEST(Branch, IndirectRandomTargetsMispredict)
{
    BranchPredictor p;
    std::uint64_t state = 3;
    int misses = 0;
    const auto before = p.mispredicts();
    for (int i = 0; i < 2000; ++i)
        p.indirect(7, alberta::support::splitmix64(state) % 64);
    misses = static_cast<int>(p.mispredicts() - before);
    EXPECT_GT(misses, 1000);
}

TEST(Machine, RetiringDominatesCleanAluStream)
{
    Machine m;
    m.setMethod(1, 256);
    m.ops(OpKind::IntAlu, 100000);
    const auto r = m.ratios();
    EXPECT_GT(r.retiring, 0.7);
    EXPECT_NEAR(r.frontend + r.backend + r.badspec + r.retiring, 1.0,
                1e-9);
}

TEST(Machine, DivisionHeavyStreamIsBackendBound)
{
    Machine m;
    m.setMethod(1, 256);
    m.ops(OpKind::IntDiv, 100000);
    const auto r = m.ratios();
    EXPECT_GT(r.backend, 0.8);
}

TEST(Machine, RandomBranchesRaiseBadSpeculation)
{
    Machine clean, noisy;
    clean.setMethod(1, 256);
    noisy.setMethod(1, 256);
    std::uint64_t state = 7;
    for (int i = 0; i < 20000; ++i) {
        clean.branch(1, true);
        noisy.branch(1, alberta::support::splitmix64(state) & 1);
        clean.ops(OpKind::IntAlu, 4);
        noisy.ops(OpKind::IntAlu, 4);
    }
    EXPECT_GT(noisy.ratios().badspec, clean.ratios().badspec * 5.0);
}

TEST(Machine, BigWorkingSetRaisesBackendBound)
{
    Machine small, big;
    small.setMethod(1, 256);
    big.setMethod(1, 256);
    for (int pass = 0; pass < 4; ++pass) {
        for (std::uint64_t i = 0; i < 20000; ++i) {
            small.load((i % 128) * 64);
            big.load((i * 97 % 1000000) * 64);
        }
    }
    EXPECT_GT(big.ratios().backend, small.ratios().backend * 1.5);
}

TEST(Machine, LargeCodeFootprintRaisesFrontendBound)
{
    Machine smallCode, bigCode;
    smallCode.setMethod(1, 512);
    bigCode.setMethod(1, 512 * 1024);
    smallCode.ops(OpKind::IntAlu, 400000);
    bigCode.ops(OpKind::IntAlu, 400000);
    EXPECT_GT(bigCode.ratios().frontend,
              smallCode.ratios().frontend * 3.0);
}

TEST(Machine, PerMethodAttribution)
{
    Machine m;
    m.setMethod(1, 256);
    m.ops(OpKind::IntAlu, 1000);
    m.setMethod(2, 256);
    m.ops(OpKind::IntAlu, 3000);
    const auto &pm = m.perMethod();
    ASSERT_GE(pm.size(), 3u);
    EXPECT_NEAR(pm[2].retiring / pm[1].retiring, 3.0, 1e-9);
}

TEST(Machine, ProfileCollectionCountsDirections)
{
    Machine m;
    m.collectProfile(true);
    m.setMethod(3, 256);
    for (int i = 0; i < 10; ++i)
        m.branch(5, i < 7);
    const auto &profiles = m.siteProfiles();
    // Stable site key: stable_key * golden + site (default key = id).
    const auto it =
        profiles.find(std::uint64_t(3) * 0x9e3779b97f4a7c15ULL + 5);
    ASSERT_NE(it, profiles.end());
    EXPECT_EQ(it->second.total, 10u);
    EXPECT_EQ(it->second.taken, 7u);
}

TEST(Machine, LayoutScaleShrinksCodeFootprint)
{
    CodeLayout layout;
    layout.scale[1] = 0.125;
    Machine plain, optimized;
    optimized.setLayout(&layout);
    plain.setMethod(1, 64 * 1024);
    optimized.setMethod(1, 64 * 1024);
    plain.ops(OpKind::IntAlu, 200000);
    optimized.ops(OpKind::IntAlu, 200000);
    EXPECT_LT(optimized.ratios().frontend, plain.ratios().frontend);
}

TEST(Machine, ResetClearsEverything)
{
    Machine m;
    m.setMethod(1, 256);
    m.ops(OpKind::IntAlu, 100);
    m.reset();
    EXPECT_EQ(m.retiredOps(), 0u);
    EXPECT_EQ(m.totals().total(), 0.0);
}

TEST(Machine, StreamTouchesEachLineOnce)
{
    Machine m;
    m.setMethod(1, 256);
    m.stream(OpKind::Load, 0, 1024, 8); // 8 KiB = 128 lines
    EXPECT_EQ(m.hierarchy().l1d().accesses(), 128u);
    EXPECT_EQ(m.retiredOps(), 1024u);
}

TEST(Machine, DeterministicAcrossInstances)
{
    auto run = [] {
        Machine m;
        m.setMethod(1, 2048);
        std::uint64_t state = 99;
        for (int i = 0; i < 50000; ++i) {
            const auto r = alberta::support::splitmix64(state);
            m.branch(1, r & 1);
            m.load((r >> 1) % (1 << 22));
            m.ops(OpKind::IntAlu, 3);
        }
        return m.ratios();
    };
    const auto a = run();
    const auto b = run();
    EXPECT_DOUBLE_EQ(a.frontend, b.frontend);
    EXPECT_DOUBLE_EQ(a.backend, b.backend);
    EXPECT_DOUBLE_EQ(a.badspec, b.badspec);
    EXPECT_DOUBLE_EQ(a.retiring, b.retiring);
}

/**
 * Reference true-LRU set-associative cache: the straightforward scan
 * the optimized Cache must stay decision-identical to.
 */
class ReferenceLru
{
  public:
    ReferenceLru(std::uint64_t bytes, int ways, int line_bytes)
        : ways_(ways), lineBytes_(line_bytes),
          sets_(bytes / line_bytes / ways)
    {
        tags_.assign(sets_ * ways_, ~0ULL);
        stamps_.assign(sets_ * ways_, 0);
    }

    bool
    access(std::uint64_t addr)
    {
        ++now_;
        const std::uint64_t line = addr / lineBytes_;
        const std::size_t base = (line % sets_) * ways_;
        std::size_t victim = base;
        std::uint64_t oldest = ~0ULL;
        for (int w = 0; w < ways_; ++w) {
            if (tags_[base + w] == line) {
                stamps_[base + w] = now_;
                return true;
            }
            if (stamps_[base + w] < oldest) {
                oldest = stamps_[base + w];
                victim = base + w;
            }
        }
        tags_[victim] = line;
        stamps_[victim] = now_;
        return false;
    }

  private:
    int ways_;
    int lineBytes_;
    std::size_t sets_;
    std::uint64_t now_ = 0;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> stamps_;
};

TEST(Cache, MruFastPathMatchesReferenceLruOnRandomSequences)
{
    // Mix of repeat hits (exercising the MRU memo), set conflicts, and
    // cold lines; every access must agree with the reference scan.
    Cache fast(4096, 4, 64);
    ReferenceLru ref(4096, 4, 64);
    alberta::support::Rng rng(0x10ca1);
    std::uint64_t last = 0;
    for (int i = 0; i < 200000; ++i) {
        std::uint64_t addr;
        const auto mode = rng.below(4);
        if (mode == 0)
            addr = rng.below(64) * 64;          // small hot set
        else if (mode == 1)
            addr = rng.below(16) * 4096;        // one-set conflicts
        else if (mode == 2)
            addr = last;                         // repeat (MRU hit)
        else
            addr = rng.below(1 << 20);           // cold-ish
        last = addr;
        ASSERT_EQ(fast.access(addr), ref.access(addr))
            << "divergence at access " << i << ", addr " << addr;
    }
}

TEST(Cache, EvictionOrderSurvivesMruHits)
{
    // 2-way set: refresh the older way via the MRU fast path must not
    // disturb which way is the LRU victim.
    Cache c(1024, 2, 64);
    c.access(0 << 6);  // way A <- line 0
    c.access(8 << 6);  // way B <- line 8 (MRU)
    c.access(8 << 6);  // MRU fast-path hit on B
    c.access(8 << 6);  // and again
    c.access(16 << 6); // must evict line 0 (A is LRU despite B's hits)
    EXPECT_TRUE(c.access(8 << 6));
    EXPECT_FALSE(c.access(0 << 6));
}

TEST(Cache, ResetRestoresColdStateIncludingMruMemo)
{
    Cache c(1024, 2, 64);
    for (int i = 0; i < 100; ++i)
        c.access(static_cast<std::uint64_t>(i % 10) << 6);
    c.reset();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    // First access after reset must miss even at the previous MRU line.
    EXPECT_FALSE(c.access(9 << 6));
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Machine, StreamWideStrideTouchesEverySpannedLine)
{
    // stride 256 > line size: the span [0, 16*256) covers 64 lines,
    // and every one is accessed even though elements skip lines.
    Machine m;
    m.setMethod(1, 256);
    m.stream(OpKind::Load, 0, 16, 256);
    EXPECT_EQ(m.hierarchy().l1d().accesses(), 64u);
    EXPECT_EQ(m.retiredOps(), 16u);
}

TEST(Machine, StreamZeroStrideTouchesOneLine)
{
    Machine m;
    m.setMethod(1, 256);
    m.stream(OpKind::Store, 4096, 1000, 0);
    EXPECT_EQ(m.hierarchy().l1d().accesses(), 1u);
    EXPECT_EQ(m.retiredOps(), 1000u);
}

TEST(Machine, StreamUnalignedSpanCoversBothEdgeLines)
{
    // 100 elements x 8B from 0x1f8: spans [0x1f8, 0x518) = lines 7..20.
    Machine m;
    m.setMethod(1, 256);
    m.stream(OpKind::Load, 0x1f8, 100, 8);
    EXPECT_EQ(m.hierarchy().l1d().accesses(), 14u);
}

TEST(Machine, StreamMatchesPerElementLoads)
{
    // The batched stream accounting must reach the same cache state
    // and slot totals as per-element loads over the same span.
    auto runStream = [] {
        Machine m;
        m.setMethod(1, 256);
        m.stream(OpKind::Load, 0x8000, 4096, 64);
        return m;
    };
    auto runLoads = [] {
        Machine m;
        m.setMethod(1, 256);
        for (std::uint64_t i = 0; i < 4096; ++i)
            m.load(0x8000 + i * 64);
        return m;
    };
    const Machine a = runStream();
    const Machine b = runLoads();
    EXPECT_EQ(a.hierarchy().l1d().accesses(),
              b.hierarchy().l1d().accesses());
    EXPECT_EQ(a.hierarchy().l1d().misses(),
              b.hierarchy().l1d().misses());
    EXPECT_EQ(a.retiredOps(), b.retiredOps());
    EXPECT_NEAR(a.totals().backend, b.totals().backend,
                1e-9 * b.totals().backend);
}

TEST(Machine, CodeFetchCountIndependentOfReportingGranularity)
{
    // The I-cache fast path skips re-fetches of the current line; the
    // modelled fetch stream must not depend on whether uops arrive one
    // at a time or in bulk.
    auto fetches = [](std::uint64_t chunk) {
        Machine m;
        m.setMethod(1, 8192);
        for (std::uint64_t done = 0; done < 60000; done += chunk)
            m.ops(OpKind::IntAlu, chunk);
        return m.hierarchy().l1i().accesses();
    };
    const auto one = fetches(1);
    EXPECT_EQ(one, fetches(3));
    EXPECT_EQ(one, fetches(16));
    EXPECT_EQ(one, fetches(60000));
    // 60000 uops * 4B / 64B per line = 3750 line fetches through the
    // 8 KiB footprint; each line is fetched once per wrap, never more.
    EXPECT_EQ(one, 3750u);
}

TEST(Machine, RunningTotalsMatchPerMethodSums)
{
    Machine m;
    alberta::support::Rng rng(0x707a1);
    for (int i = 0; i < 30000; ++i) {
        m.setMethod(1 + static_cast<std::uint32_t>(rng.below(5)), 2048);
        m.branch(static_cast<std::uint32_t>(rng.below(3)), rng() & 1);
        m.load(rng.below(1 << 22));
        m.ops(OpKind::FpAdd, rng.below(7));
    }
    SlotCounts sum;
    for (const auto &slots : m.perMethod())
        sum += slots;
    const auto &t = m.totals();
    EXPECT_NEAR(t.frontend, sum.frontend, 1e-9 * sum.frontend);
    EXPECT_NEAR(t.backend, sum.backend, 1e-9 * sum.backend);
    EXPECT_NEAR(t.badspec, sum.badspec, 1e-9 * sum.badspec);
    EXPECT_NEAR(t.retiring, sum.retiring, 1e-9 * sum.retiring);
}

TEST(Machine, ProfileTableSurvivesGrowthAcrossManySites)
{
    // More distinct sites than the flat table's initial capacity, so
    // site profiles survive at least one rehash intact.
    Machine m;
    m.collectProfile(true);
    m.setMethod(2, 256);
    const int kSites = 3000;
    for (int round = 0; round < 3; ++round) {
        for (int s = 0; s < kSites; ++s)
            m.branch(static_cast<std::uint32_t>(s), s % 2 == 0);
    }
    const auto profiles = m.siteProfiles();
    ASSERT_EQ(profiles.size(), static_cast<std::size_t>(kSites));
    for (int s = 0; s < kSites; ++s) {
        const auto it = profiles.find(
            std::uint64_t(2) * 0x9e3779b97f4a7c15ULL + s);
        ASSERT_NE(it, profiles.end()) << "site " << s;
        EXPECT_EQ(it->second.total, 3u) << "site " << s;
        EXPECT_EQ(it->second.taken, s % 2 == 0 ? 3u : 0u);
    }
}

/** Parameterized issue-width sweep: fractions stay normalized. */
class MachineWidth : public ::testing::TestWithParam<int>
{
};

TEST_P(MachineWidth, FractionsAlwaysNormalized)
{
    MachineConfig cfg;
    cfg.issueWidth = GetParam();
    Machine m(cfg);
    m.setMethod(1, 1024);
    std::uint64_t state = 5;
    for (int i = 0; i < 10000; ++i) {
        m.branch(1, alberta::support::splitmix64(state) & 3);
        m.load((state >> 3) % (1 << 20));
        m.ops(OpKind::FpMul, 2);
    }
    const auto r = m.ratios();
    EXPECT_NEAR(r.frontend + r.backend + r.badspec + r.retiring, 1.0,
                1e-9);
    EXPECT_GE(r.frontend, 0.0);
    EXPECT_GE(r.backend, 0.0);
    EXPECT_GE(r.badspec, 0.0);
    EXPECT_GE(r.retiring, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Widths, MachineWidth,
                         ::testing::Values(1, 2, 4, 6, 8));

// ---------------------------------------------------------------------
// Architectural-state completeness: reset, exercised across all five
// bench_machine scenarios (the canonical mix of every machine fast
// path). The state digest covers every piece of machine state, so this
// test fails if one is added without extending reset.

/** Every scenario leaves distinctive state; reset must erase all of
 * it, leaving the machine digest-identical to a fresh instance. */
TEST(MachineState, ResetIsBitIdenticalToFreshAcrossAllScenarios)
{
    const Machine fresh;
    const std::uint64_t freshDigest = fresh.stateDigest();
    for (const auto &scenario : alberta::bench::kMachineScenarios) {
        Machine m;
        m.setMethod(1, 4096, alberta::support::mix64(1));
        scenario.run(m, 1, nullptr, 0);
        EXPECT_NE(m.stateDigest(), freshDigest) << scenario.name;
        m.reset();
        EXPECT_EQ(m.stateDigest(), freshDigest) << scenario.name;
    }
}

} // namespace
