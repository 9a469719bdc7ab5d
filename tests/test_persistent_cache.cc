/**
 * @file
 * Tests for runtime::ResultCache's disk tier, which lets a second
 * *process* start warm: bit-exact round-trips, the source-digest key
 * (entries of another build are plain misses), corruption tolerance
 * (truncated, bit-flipped and garbage entries must be misses, never
 * crashes), concurrent writers on one directory, and the disk-warm
 * second-engine path end to end. Every count is read from the
 * registry.
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
#include "runtime/result_cache.h"
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

/** The one entry file the tests' single insert left in @p dir. */
std::string
entryFile(const std::string &dir)
{
    std::vector<fs::path> files;
    for (const auto &e : fs::directory_iterator(dir))
        files.push_back(e.path());
    EXPECT_EQ(files.size(), 1u);
    return files.empty() ? "" : files.front().string();
}

std::uint64_t
count(obs::Registry &metrics, const std::string &name)
{
    return metrics.counter(name).value();
}

bool
hasMetric(const obs::Registry &metrics, const std::string &name)
{
    for (const auto &s : metrics.snapshot()) {
        if (s.name == name)
            return true;
    }
    return false;
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

/** One cold run of @p w, with recorded timings. */
runtime::CachedRun
coldRun(const runtime::Benchmark &bm, const runtime::Workload &w)
{
    runtime::CachedRun run;
    run.measurement = runtime::runOnce(bm, w);
    run.timedSeconds = {1.25, 0.5, 1e-9};
    return run;
}

TEST(PersistentCache, RoundTripsARunBitExactly)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    const runtime::Workload w = bm->workloads().front();
    const runtime::CachedRun run = coldRun(*bm, w);

    const std::string dir = freshDir("roundtrip");
    obs::Registry writerMetrics, readerMetrics;
    runtime::ResultCache writer(writerMetrics, dir);
    writer.insert(*bm, w, run);
    EXPECT_EQ(count(writerMetrics, "cache.disk_writes"), 1u);
    EXPECT_EQ(count(writerMetrics, "cache.disk_write_failures"), 0u);

    // A fresh cache has an empty memory tier: the hit is the disk's.
    runtime::ResultCache reader(readerMetrics, dir);
    runtime::CachedRun loaded;
    ASSERT_TRUE(reader.lookup(*bm, w, &loaded));
    EXPECT_EQ(count(readerMetrics, "cache.disk_hits"), 1u);
    EXPECT_EQ(reader.hits(), 1u);
    expectSameRun(run, loaded);
}

/** A probe that needs more timed repetitions than an entry holds
 * cannot be answered by it: that is a counted miss in whichever tier
 * holds the entry, and the entry still answers a smaller request. */
TEST(PersistentCache, EntryWithTooFewTimedRunsIsAMissInBothTiers)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    const runtime::Workload w = bm->workloads().front();
    const std::string dir = freshDir("timed");
    obs::Registry writerMetrics, metrics;
    runtime::ResultCache(writerMetrics, dir).insert(*bm, w, coldRun(*bm, w));

    runtime::ResultCache cache(metrics, dir);
    runtime::CachedRun out;
    EXPECT_FALSE(cache.lookup(*bm, w, &out, 4)); // disk holds 3
    EXPECT_EQ(count(metrics, "cache.disk_misses"), 1u);
    EXPECT_TRUE(cache.lookup(*bm, w, &out, 3)); // promoted to memory
    EXPECT_EQ(count(metrics, "cache.disk_hits"), 1u);
    EXPECT_FALSE(cache.lookup(*bm, w, &out, 4)); // memory holds 3 too
    EXPECT_EQ(count(metrics, "cache.disk_misses"), 2u);
    EXPECT_TRUE(cache.lookup(*bm, w, &out)); // a memory hit
    EXPECT_EQ(count(metrics, "cache.disk_hits"), 1u);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(PersistentCache, AbsentEntryIsAPlainMiss)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    const runtime::Workload w = bm->workloads().front();
    obs::Registry metrics;
    runtime::ResultCache cache(metrics, freshDir("absent"));
    runtime::CachedRun out;
    EXPECT_FALSE(cache.lookup(*bm, w, &out));
    EXPECT_EQ(count(metrics, "cache.disk_misses"), 1u);
    EXPECT_EQ(count(metrics, "cache.disk_corrupt"), 0u);
    EXPECT_EQ(cache.misses(), 1u);
}

/** Entries written by another build of the model (another source
 * digest) are plain misses on the same directory, not corruption. */
TEST(PersistentCache, RejectsEntriesFromADifferentModelVersion)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    const runtime::Workload w = bm->workloads().front();
    const std::string dir = freshDir("version");
    obs::Registry writerMetrics, sameMetrics, otherMetrics;
    runtime::ResultCache writer(writerMetrics, dir, /*sourceDigest=*/1);
    writer.insert(*bm, w, coldRun(*bm, w));

    runtime::ResultCache same(sameMetrics, dir, /*sourceDigest=*/1);
    EXPECT_TRUE(same.lookup(*bm, w, nullptr));

    runtime::ResultCache other(otherMetrics, dir, /*sourceDigest=*/2);
    runtime::CachedRun out;
    EXPECT_FALSE(other.lookup(*bm, w, &out));
    EXPECT_EQ(count(otherMetrics, "cache.disk_misses"), 1u);
    EXPECT_EQ(count(otherMetrics, "cache.disk_corrupt"), 0u);
    // The default digest is this build's.
    obs::Registry buildMetrics;
    runtime::ResultCache build(buildMetrics, dir);
    EXPECT_FALSE(build.lookup(*bm, w, nullptr));
    EXPECT_NE(runtime::ResultCache::buildDigest(), 1u);
}

TEST(PersistentCache, TruncatedEntryIsACorruptMissNotACrash)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    const runtime::Workload w = bm->workloads().front();
    const std::string dir = freshDir("truncate");
    obs::Registry writerMetrics, metrics;
    runtime::ResultCache(writerMetrics, dir).insert(*bm, w,
                                                    coldRun(*bm, w));
    runtime::ResultCache cache(metrics, dir);
    const std::string path = entryFile(dir);
    const auto fullSize = fs::file_size(path);
    for (const std::uintmax_t size :
         {fullSize / 2, std::uintmax_t{3}, std::uintmax_t{0}}) {
        fs::resize_file(path, size);
        runtime::CachedRun out;
        EXPECT_FALSE(cache.lookup(*bm, w, &out)) << "size " << size;
    }
    EXPECT_EQ(count(metrics, "cache.disk_corrupt"), 3u);
}

TEST(PersistentCache, BitFlippedEntryIsACorruptMissNotACrash)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    const runtime::Workload w = bm->workloads().front();
    const runtime::CachedRun run = coldRun(*bm, w);
    const std::string dir = freshDir("bitflip");
    obs::Registry writerMetrics, metrics;
    runtime::ResultCache writer(writerMetrics, dir);
    writer.insert(*bm, w, run);
    const std::string path = entryFile(dir);

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

    runtime::ResultCache cache(metrics, dir);
    runtime::CachedRun out;
    EXPECT_FALSE(cache.lookup(*bm, w, &out));
    EXPECT_EQ(count(metrics, "cache.disk_corrupt"), 1u);

    // A clean rewrite recovers the entry.
    writer.insert(*bm, w, run);
    EXPECT_TRUE(cache.lookup(*bm, w, &out));
    expectSameRun(run, out);
}

TEST(PersistentCache, GarbageFileIsACorruptMiss)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    const runtime::Workload w = bm->workloads().front();
    const std::string dir = freshDir("garbage");
    obs::Registry writerMetrics, metrics;
    runtime::ResultCache(writerMetrics, dir).insert(*bm, w,
                                                    coldRun(*bm, w));
    {
        std::ofstream out(entryFile(dir),
                          std::ios::binary | std::ios::trunc);
        out << "this is not a cache entry at all";
    }
    runtime::ResultCache cache(metrics, dir);
    runtime::CachedRun out;
    EXPECT_FALSE(cache.lookup(*bm, w, &out));
    EXPECT_EQ(count(metrics, "cache.disk_corrupt"), 1u);
}

/** A write that cannot land is dropped, never fatal, and counted in
 * the registry; the memory tier still holds the run. */
TEST(PersistentCache, WriteFailuresAreCounted)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    const runtime::Workload w = bm->workloads().front();
    const std::string dir = freshDir("write-failure");
    obs::Registry metrics;
    runtime::ResultCache cache(metrics, dir);
    fs::remove_all(dir); // the directory vanishes under the cache
    cache.insert(*bm, w, coldRun(*bm, w));
    EXPECT_EQ(count(metrics, "cache.disk_writes"), 0u);
    EXPECT_EQ(count(metrics, "cache.disk_write_failures"), 1u);
    EXPECT_TRUE(cache.lookup(*bm, w, nullptr));
}

TEST(PersistentCache, FatalsOnUnusableDirectory)
{
    // A path whose parent is a regular file can never be a directory.
    const std::string dir = freshDir("blocked");
    fs::create_directories(dir);
    const std::string file = dir + "/occupied";
    { std::ofstream(file) << "x"; }
    obs::Registry metrics;
    EXPECT_THROW(runtime::ResultCache(metrics, file + "/sub"),
                 support::FatalError);
    // No directory is no disk tier (the CLI refuses an explicitly
    // empty --cache-dir, see EngineBuilder.CacheDirOptionPrecedence).
    obs::Registry memoryOnly;
    runtime::ResultCache cache(memoryOnly, "");
    EXPECT_FALSE(hasMetric(memoryOnly, "cache.disk_hits"));
}

TEST(PersistentCache, ConcurrentWritersNeverTearAnEntry)
{
    const auto bm = core::makeBenchmark("505.mcf_r");
    const runtime::Workload w = bm->workloads().front();
    const std::string dir = freshDir("concurrent");

    // Two caches on one directory (two "engines"), racing writes to
    // the same entry while fresh caches read it from disk. Atomic
    // rename means every load sees one writer's complete entry —
    // never a torn mix.
    obs::Registry metricsA, metricsB, readerMetrics;
    runtime::ResultCache a(metricsA, dir);
    runtime::ResultCache b(metricsB, dir);
    runtime::CachedRun runA;
    runA.measurement = runtime::runOnce(*bm, w);
    runA.timedSeconds = {1.0};
    runtime::CachedRun runB = runA;
    runB.timedSeconds = {2.0};

    constexpr int kRounds = 64;
    std::thread ta([&] {
        for (int i = 0; i < kRounds; ++i)
            a.insert(*bm, w, runA);
    });
    std::thread tb([&] {
        for (int i = 0; i < kRounds; ++i) {
            b.insert(*bm, w, runB);
            runtime::ResultCache fresh(readerMetrics, dir);
            runtime::CachedRun seen;
            if (fresh.lookup(*bm, w, &seen)) {
                ASSERT_EQ(seen.timedSeconds.size(), 1u);
                EXPECT_TRUE(seen.timedSeconds[0] == 1.0 ||
                            seen.timedSeconds[0] == 2.0);
            }
        }
    });
    ta.join();
    tb.join();
    EXPECT_EQ(count(metricsA, "cache.disk_write_failures") +
                  count(metricsB, "cache.disk_write_failures"),
              0u);
    EXPECT_EQ(count(readerMetrics, "cache.disk_corrupt"), 0u);

    runtime::ResultCache reader(readerMetrics, dir);
    runtime::CachedRun final;
    ASSERT_TRUE(reader.lookup(*bm, w, &final));
    EXPECT_EQ(count(readerMetrics, "cache.disk_corrupt"), 0u);
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
    EXPECT_EQ(count(first.metrics(), "cache.disk_writes"),
              cold.workloadNames.size());

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
    EXPECT_EQ(count(second.metrics(), "cache.disk_hits"),
              warm.workloadNames.size());
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
    for (runtime::Engine *engine : {&a, &b}) {
        EXPECT_EQ(count(engine->metrics(), "cache.disk_write_failures"),
                  0u);
        EXPECT_EQ(count(engine->metrics(), "cache.disk_corrupt"), 0u);
    }

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
        EXPECT_FALSE(hasMetric(engine.metrics(), "cache.disk_hits"));
    }
}

} // namespace
