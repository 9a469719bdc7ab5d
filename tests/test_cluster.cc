/** @file Tests for workload clustering (k-medoids). */
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "support/check.h"

namespace {

using namespace alberta;
using namespace alberta::core;

std::vector<std::vector<double>>
threeBlobs()
{
    // Three tight groups in 2D.
    return {
        {0.0, 0.0},  {0.1, 0.0},  {0.0, 0.1},  // blob A
        {5.0, 5.0},  {5.1, 5.0},  {5.0, 5.1},  // blob B
        {10.0, 0.0}, {10.1, 0.0}, {10.0, 0.1}, // blob C
    };
}

TEST(L1Distance, HandComputed)
{
    EXPECT_DOUBLE_EQ(l1Distance({1, 2, 3}, {2, 0, 3}), 3.0);
    EXPECT_DOUBLE_EQ(l1Distance({0.5}, {0.5}), 0.0);
}

TEST(KMedoids, RecoversWellSeparatedBlobs)
{
    const auto points = threeBlobs();
    const Clustering c = kMedoids(points, 3);
    ASSERT_EQ(c.medoids.size(), 3u);
    // Every blob's three points share an assignment.
    for (int blob = 0; blob < 3; ++blob) {
        const std::size_t expect = c.assignment[blob * 3];
        EXPECT_EQ(c.assignment[blob * 3 + 1], expect);
        EXPECT_EQ(c.assignment[blob * 3 + 2], expect);
    }
    // And the three blobs land in three distinct clusters.
    EXPECT_NE(c.assignment[0], c.assignment[3]);
    EXPECT_NE(c.assignment[3], c.assignment[6]);
    EXPECT_NE(c.assignment[0], c.assignment[6]);
    // Tight blobs: total cost is small.
    EXPECT_LT(c.cost, 2.0);
}

TEST(KMedoids, MedoidsAreClusterMembers)
{
    const auto points = threeBlobs();
    const Clustering c = kMedoids(points, 3);
    for (std::size_t cl = 0; cl < c.medoids.size(); ++cl)
        EXPECT_EQ(c.assignment[c.medoids[cl]], cl);
}

TEST(KMedoids, KEqualsNIsZeroCost)
{
    const auto points = threeBlobs();
    const Clustering c = kMedoids(points, points.size());
    EXPECT_DOUBLE_EQ(c.cost, 0.0);
}

TEST(KMedoids, SingleClusterPicksCentralMedoid)
{
    const std::vector<std::vector<double>> line = {
        {0.0}, {1.0}, {2.0}, {3.0}, {10.0}};
    const Clustering c = kMedoids(line, 1);
    // The 1-medoid minimizing total L1 distance is the median (2.0).
    EXPECT_EQ(c.medoids[0], 2u);
}

TEST(KMedoids, MoreClustersNeverIncreaseCost)
{
    const auto points = threeBlobs();
    double prev = 1e30;
    for (std::size_t k = 1; k <= 4; ++k) {
        const Clustering c = kMedoids(points, k);
        EXPECT_LE(c.cost, prev + 1e-12) << "k=" << k;
        prev = c.cost;
    }
}

TEST(KMedoids, InvalidKIsFatal)
{
    const auto points = threeBlobs();
    EXPECT_THROW(kMedoids(points, 0), support::FatalError);
    EXPECT_THROW(kMedoids(points, points.size() + 1),
                 support::FatalError);
}

TEST(KMedoids, Deterministic)
{
    const auto points = threeBlobs();
    const Clustering a = kMedoids(points, 2);
    const Clustering b = kMedoids(points, 2);
    EXPECT_EQ(a.medoids, b.medoids);
    EXPECT_EQ(a.assignment, b.assignment);
}

TEST(ClusterWorkloads, GroupsABenchmarkByBehaviour)
{
    const auto bm = makeBenchmark("557.xz_r");
    RunRequest request;
    request.refrateRepetitions = 1;
    runtime::Engine engine(1);
    const Characterization c = characterize(*bm, request, engine);
    const Clustering clustering = clusterWorkloads(c, 3);
    ASSERT_EQ(clustering.assignment.size(),
              c.workloadNames.size());
    ASSERT_EQ(clustering.medoids.size(), 3u);
    // The assignment covers all three clusters.
    std::vector<int> seen(3, 0);
    for (const std::size_t a : clustering.assignment)
        ++seen[a];
    for (const int count : seen)
        EXPECT_GT(count, 0);
}

} // namespace
