/**
 * @file
 * Tests for runtime::PersistentCache, the on-disk store behind the
 * result cache: bit-exact round-trips, model-version rejection,
 * corruption tolerance (truncated and bit-flipped entries must be
 * misses, never crashes), concurrent writers on one directory, and
 * the disk-warm second-engine path end to end.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/suite.h"
#include "runtime/persistent_cache.h"
#include "support/check.h"

namespace {

using namespace alberta;
namespace fs = std::filesystem;

/** Fresh private directory under the gtest temp root. */
std::string
freshDir(const std::string &tag)
{
    static int counter = 0;
    const fs::path dir = fs::path(::testing::TempDir()) /
                         ("alberta-" + tag + "-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(counter++));
    fs::remove_all(dir);
    return dir.string();
}

bool
bitIdentical(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

void
expectSameRun(const runtime::CachedRun &a, const runtime::CachedRun &b)
{
    EXPECT_TRUE(bitIdentical(a.measurement.seconds,
                             b.measurement.seconds));
    EXPECT_TRUE(bitIdentical(a.measurement.simCycles,
                             b.measurement.simCycles));
    EXPECT_EQ(a.measurement.retiredOps, b.measurement.retiredOps);
    EXPECT_EQ(a.measurement.checksum, b.measurement.checksum);
    const auto x = a.measurement.topdown.asArray();
    const auto y = b.measurement.topdown.asArray();
    for (std::size_t k = 0; k < x.size(); ++k)
        EXPECT_TRUE(bitIdentical(x[k], y[k])) << "ratio " << k;
    EXPECT_EQ(a.measurement.coverage, b.measurement.coverage);
    ASSERT_EQ(a.timedSeconds.size(), b.timedSeconds.size());
    for (std::size_t i = 0; i < a.timedSeconds.size(); ++i)
        EXPECT_TRUE(bitIdentical(a.timedSeconds[i], b.timedSeconds[i]));
}

TEST(PersistentCache, RoundTripsARunBitExactly)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    const runtime::Workload w = bm->workloads().front();
    runtime::CachedRun run;
    run.measurement = runtime::runOnce(*bm, w);
    run.timedSeconds = {1.25, 0.5, 1e-9};

    obs::Registry metrics;
    runtime::PersistentCache cache(freshDir("roundtrip"), metrics);
    cache.store(*bm, w, run);
    EXPECT_EQ(cache.writes(), 1u);
    EXPECT_EQ(cache.writeFailures(), 0u);

    runtime::CachedRun loaded;
    ASSERT_TRUE(cache.load(*bm, w, &loaded));
    EXPECT_EQ(cache.hits(), 1u);
    expectSameRun(run, loaded);
}

TEST(PersistentCache, AbsentEntryIsAPlainMiss)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    const runtime::Workload w = bm->workloads().front();
    obs::Registry metrics;
    runtime::PersistentCache cache(freshDir("absent"), metrics);
    runtime::CachedRun out;
    EXPECT_FALSE(cache.load(*bm, w, &out));
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.corrupt(), 0u);
}

TEST(PersistentCache, RejectsEntriesFromADifferentModelVersion)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    const runtime::Workload w = bm->workloads().front();
    runtime::CachedRun run;
    run.measurement = runtime::runOnce(*bm, w);

    const std::string dir = freshDir("version");
    obs::Registry writerMetrics, readerMetrics;
    runtime::PersistentCache writer(dir, writerMetrics,
                                    /*modelVersion=*/1);
    writer.store(*bm, w, run);
    ASSERT_TRUE(writer.load(*bm, w, nullptr));

    // Same directory, different model semantics: a silent miss, not a
    // corruption event.
    runtime::PersistentCache reader(dir, readerMetrics,
                                    /*modelVersion=*/2);
    runtime::CachedRun out;
    EXPECT_FALSE(reader.load(*bm, w, &out));
    EXPECT_EQ(reader.misses(), 1u);
    EXPECT_EQ(reader.corrupt(), 0u);
}

TEST(PersistentCache, TruncatedEntryIsACorruptMissNotACrash)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    const runtime::Workload w = bm->workloads().front();
    runtime::CachedRun run;
    run.measurement = runtime::runOnce(*bm, w);

    obs::Registry metrics;
    runtime::PersistentCache cache(freshDir("truncate"), metrics);
    cache.store(*bm, w, run);
    const std::string path = cache.entryPath(*bm, w);
    const auto fullSize = fs::file_size(path);
    for (const std::uintmax_t size :
         {fullSize / 2, std::uintmax_t{3}, std::uintmax_t{0}}) {
        fs::resize_file(path, size);
        runtime::CachedRun out;
        EXPECT_FALSE(cache.load(*bm, w, &out)) << "size " << size;
    }
    EXPECT_EQ(cache.corrupt(), 3u);
}

TEST(PersistentCache, BitFlippedEntryIsACorruptMissNotACrash)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    const runtime::Workload w = bm->workloads().front();
    runtime::CachedRun run;
    run.measurement = runtime::runOnce(*bm, w);

    obs::Registry metrics;
    runtime::PersistentCache cache(freshDir("bitflip"), metrics);
    cache.store(*bm, w, run);
    const std::string path = cache.entryPath(*bm, w);

    // Flip one bit of the trailing payload checksum: the entry stays
    // well-formed but can no longer verify.
    std::fstream file(path, std::ios::in | std::ios::out |
                                std::ios::binary | std::ios::ate);
    ASSERT_TRUE(file.good());
    const auto size = static_cast<std::streamoff>(file.tellg());
    file.seekg(size - 1);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(size - 1);
    file.write(&byte, 1);
    file.close();

    runtime::CachedRun out;
    EXPECT_FALSE(cache.load(*bm, w, &out));
    EXPECT_EQ(cache.corrupt(), 1u);

    // A clean rewrite recovers the entry.
    cache.store(*bm, w, run);
    EXPECT_TRUE(cache.load(*bm, w, &out));
    expectSameRun(run, out);
}

TEST(PersistentCache, GarbageFileIsACorruptMiss)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    const runtime::Workload w = bm->workloads().front();
    obs::Registry metrics;
    runtime::PersistentCache cache(freshDir("garbage"), metrics);
    {
        std::ofstream out(cache.entryPath(*bm, w), std::ios::binary);
        out << "this is not a cache entry at all";
    }
    runtime::CachedRun out;
    EXPECT_FALSE(cache.load(*bm, w, &out));
    EXPECT_EQ(cache.corrupt(), 1u);
}

/** A write that cannot land is dropped, never fatal, and counted in
 * the registry. */
TEST(PersistentCache, WriteFailuresAreCounted)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    const runtime::Workload w = bm->workloads().front();
    runtime::CachedRun run;
    run.measurement = runtime::runOnce(*bm, w);

    const std::string dir = freshDir("write-failure");
    obs::Registry metrics;
    runtime::PersistentCache cache(dir, metrics);
    fs::remove_all(dir); // the directory vanishes under the store
    cache.store(*bm, w, run);
    EXPECT_EQ(cache.writes(), 0u);
    EXPECT_EQ(cache.writeFailures(), 1u);
    EXPECT_EQ(metrics.counter("cache.disk_write_failures").value(), 1u);
}

TEST(PersistentCache, FatalsOnUnusableDirectory)
{
    obs::Registry metrics;
    EXPECT_THROW(runtime::PersistentCache("", metrics),
                 support::FatalError);
    // A path whose parent is a regular file can never be a directory.
    const std::string dir = freshDir("blocked");
    fs::create_directories(dir);
    const std::string file = dir + "/occupied";
    { std::ofstream(file) << "x"; }
    EXPECT_THROW(runtime::PersistentCache(file + "/sub", metrics),
                 support::FatalError);
}

TEST(PersistentCache, ConcurrentWritersNeverTearAnEntry)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    const runtime::Workload w = bm->workloads().front();
    const std::string dir = freshDir("concurrent");

    // Two stores on one directory (two "engines"), racing writes to
    // the same entry. Atomic rename means every subsequent load sees
    // one writer's complete entry — never a torn mix.
    obs::Registry metricsA, metricsB, readerMetrics;
    runtime::PersistentCache a(dir, metricsA);
    runtime::PersistentCache b(dir, metricsB);
    runtime::CachedRun runA;
    runA.measurement = runtime::runOnce(*bm, w);
    runA.timedSeconds = {1.0};
    runtime::CachedRun runB = runA;
    runB.timedSeconds = {2.0};

    constexpr int kRounds = 64;
    std::thread ta([&] {
        for (int i = 0; i < kRounds; ++i)
            a.store(*bm, w, runA);
    });
    std::thread tb([&] {
        for (int i = 0; i < kRounds; ++i) {
            b.store(*bm, w, runB);
            runtime::CachedRun seen;
            if (b.load(*bm, w, &seen)) {
                ASSERT_EQ(seen.timedSeconds.size(), 1u);
                EXPECT_TRUE(seen.timedSeconds[0] == 1.0 ||
                            seen.timedSeconds[0] == 2.0);
            }
        }
    });
    ta.join();
    tb.join();
    EXPECT_EQ(a.writeFailures() + b.writeFailures(), 0u);

    runtime::PersistentCache reader(dir, readerMetrics);
    runtime::CachedRun final;
    ASSERT_TRUE(reader.load(*bm, w, &final));
    EXPECT_EQ(reader.corrupt(), 0u);
    ASSERT_EQ(final.timedSeconds.size(), 1u);
    EXPECT_TRUE(final.timedSeconds[0] == 1.0 ||
                final.timedSeconds[0] == 2.0);
}

/** End to end: a second engine on the same directory starts warm. */
TEST(PersistentCache, SecondEngineOnSameDirectoryServesFromDisk)
{
    const std::string dir = freshDir("second-engine");
    const auto bm = core::makeBenchmark("557.xz_r");

    runtime::Engine first =
        runtime::Engine::Builder().jobs(2).cacheDir(dir).build();
    core::RunRequest request;
    request.refrateRepetitions = 2;
    const auto cold = core::characterize(*bm, request, first);
    ASSERT_NE(first.disk(), nullptr);
    EXPECT_EQ(first.disk()->writes(), cold.workloadNames.size());

    // Fresh engine, fresh (empty) memory cache, same directory: every
    // model run is served from disk and outputs are bit-identical.
    runtime::Engine second =
        runtime::Engine::Builder().jobs(2).cacheDir(dir).build();
    const auto warm = core::characterize(*bm, request, second);

    ASSERT_EQ(cold.workloadNames, warm.workloadNames);
    EXPECT_EQ(cold.checksumPerWorkload, warm.checksumPerWorkload);
    EXPECT_TRUE(bitIdentical(cold.topdown.muGV, warm.topdown.muGV));
    EXPECT_TRUE(bitIdentical(cold.coverage.muGM, warm.coverage.muGM));
    EXPECT_EQ(cold.refrateRuns, warm.refrateRuns);
    EXPECT_EQ(second.disk()->hits(), warm.workloadNames.size());
    EXPECT_EQ(second.cache().hits(), warm.workloadNames.size());
    EXPECT_EQ(second.cache().misses(), 0u);
    EXPECT_EQ(second.metrics().counter("model.runs").value(), 0u);

    // The disk counters surface in the metrics snapshot.
    bool sawDiskHits = false;
    for (const auto &s : second.metricsSnapshot()) {
        if (s.name == "cache.disk_hits") {
            sawDiskHits = true;
            EXPECT_EQ(s.count, warm.workloadNames.size());
        }
    }
    EXPECT_TRUE(sawDiskHits);
}

/** Two live engines racing whole characterizations of overlapping
 * workloads on one cache directory (the two-daemons case): results
 * never tear, outputs are bit-identical, and both sessions leave the
 * directory warm for a third. */
TEST(PersistentCache, ConcurrentEnginesRacingOverlappingWorkloads)
{
    const std::string dir = freshDir("racing-engines");
    core::RunRequest request;
    request.refrateRepetitions = 1;

    runtime::Engine a =
        runtime::Engine::Builder().jobs(2).cacheDir(dir).build();
    runtime::Engine b =
        runtime::Engine::Builder().jobs(2).cacheDir(dir).build();
    core::Characterization fromA, fromB;
    std::thread ta([&] {
        const auto bm = core::makeBenchmark("557.xz_r");
        fromA = core::characterize(*bm, request, a);
    });
    std::thread tb([&] {
        const auto bm = core::makeBenchmark("557.xz_r");
        fromB = core::characterize(*bm, request, b);
    });
    ta.join();
    tb.join();

    // Model outputs are deterministic, so however the disk race
    // lands, both sessions computed identical results...
    ASSERT_EQ(fromA.workloadNames, fromB.workloadNames);
    EXPECT_EQ(fromA.checksumPerWorkload, fromB.checksumPerWorkload);
    EXPECT_TRUE(bitIdentical(fromA.topdown.muGV, fromB.topdown.muGV));
    EXPECT_TRUE(
        bitIdentical(fromA.coverage.muGM, fromB.coverage.muGM));
    // ...and nothing tore on disk.
    EXPECT_EQ(a.disk()->writeFailures() + b.disk()->writeFailures(),
              0u);
    EXPECT_EQ(a.disk()->corrupt() + b.disk()->corrupt(), 0u);

    // A third engine starts fully warm from the shared directory.
    runtime::Engine third =
        runtime::Engine::Builder().jobs(2).cacheDir(dir).build();
    const auto bm = core::makeBenchmark("557.xz_r");
    const auto warm = core::characterize(*bm, request, third);
    EXPECT_EQ(third.cache().misses(), 0u);
    EXPECT_EQ(warm.checksumPerWorkload, fromA.checksumPerWorkload);
}

/** The hoisted --cache-dir / ALBERTA_CACHE_DIR precedence every
 * binary now gets from Engine::Builder::cacheDirOption. */
TEST(EngineBuilder, CacheDirOptionPrecedence)
{
    const std::string envDir = freshDir("env-cache");
    const std::string flagDir = freshDir("flag-cache");

    ::setenv("ALBERTA_CACHE_DIR", envDir.c_str(), 1);
    {
        runtime::Engine engine = runtime::Engine::Builder()
                                     .jobs(1)
                                     .cacheDirOption("", false)
                                     .build();
        EXPECT_EQ(engine.cacheDir(), envDir); // env fills in
    }
    {
        runtime::Engine engine =
            runtime::Engine::Builder()
                .jobs(1)
                .cacheDirOption(flagDir, true)
                .build();
        EXPECT_EQ(engine.cacheDir(), flagDir); // explicit flag wins
    }
    // An explicitly empty --cache-dir is a usage error, not "off".
    EXPECT_THROW(runtime::Engine::Builder().cacheDirOption("", true),
                 support::FatalError);
    ::unsetenv("ALBERTA_CACHE_DIR");
    {
        runtime::Engine engine = runtime::Engine::Builder()
                                     .jobs(1)
                                     .cacheDirOption("", false)
                                     .build();
        EXPECT_EQ(engine.cacheDir(), ""); // no flag, no env: off
        EXPECT_EQ(engine.disk(), nullptr);
    }
}

} // namespace
