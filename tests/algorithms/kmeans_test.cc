#include "algorithms/kmeans.h"

#include <gtest/gtest.h>

namespace graphtides {
namespace {

TEST(KMeansTest, RejectsDegenerateInputs) {
  Rng rng(1);
  EXPECT_FALSE(KMeans({}, 1, rng).ok());
  EXPECT_FALSE(KMeans({{1.0}}, 0, rng).ok());
  EXPECT_FALSE(KMeans({{1.0}}, 2, rng).ok());
  EXPECT_FALSE(KMeans({{1.0}, {1.0, 2.0}}, 1, rng).ok());  // mixed dims
}

TEST(KMeansTest, SinglePointSingleCluster) {
  Rng rng(2);
  auto r = KMeans({{3.0, 4.0}}, 1, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->assignment[0], 0u);
  EXPECT_DOUBLE_EQ(r->centroids[0][0], 3.0);
  EXPECT_DOUBLE_EQ(r->inertia, 0.0);
}

TEST(KMeansTest, SeparatesTwoObviousClusters) {
  Rng rng(3);
  std::vector<std::vector<double>> points;
  Rng noise(4);
  for (int i = 0; i < 50; ++i) {
    points.push_back({0.0 + noise.NextGaussian() * 0.1,
                      0.0 + noise.NextGaussian() * 0.1});
  }
  for (int i = 0; i < 50; ++i) {
    points.push_back({10.0 + noise.NextGaussian() * 0.1,
                      10.0 + noise.NextGaussian() * 0.1});
  }
  auto r = KMeans(points, 2, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  // All points of each half share a label, and the labels differ.
  for (int i = 1; i < 50; ++i) EXPECT_EQ(r->assignment[i], r->assignment[0]);
  for (int i = 51; i < 100; ++i) {
    EXPECT_EQ(r->assignment[i], r->assignment[50]);
  }
  EXPECT_NE(r->assignment[0], r->assignment[50]);
  // Inertia is tiny relative to the cluster separation.
  EXPECT_LT(r->inertia, 10.0);
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  Rng noise(5);
  std::vector<std::vector<double>> points;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 25; ++i) {
      points.push_back({c * 5.0 + noise.NextGaussian() * 0.2,
                        c * -3.0 + noise.NextGaussian() * 0.2});
    }
  }
  Rng rng1(6);
  Rng rng2(6);
  auto k1 = KMeans(points, 1, rng1);
  auto k4 = KMeans(points, 4, rng2);
  ASSERT_TRUE(k1.ok());
  ASSERT_TRUE(k4.ok());
  EXPECT_LT(k4->inertia, k1->inertia / 10.0);
}

TEST(KMeansTest, KEqualsNPerfectFit) {
  Rng rng(7);
  const std::vector<std::vector<double>> points = {
      {0.0}, {5.0}, {10.0}, {20.0}};
  auto r = KMeans(points, 4, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->inertia, 0.0, 1e-12);
  // All assignments distinct.
  std::set<uint32_t> labels(r->assignment.begin(), r->assignment.end());
  EXPECT_EQ(labels.size(), 4u);
}

TEST(KMeansTest, DuplicatePointsHandled) {
  Rng rng(8);
  const std::vector<std::vector<double>> points(10, {1.0, 1.0});
  auto r = KMeans(points, 3, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->inertia, 0.0, 1e-12);
}

TEST(KMeansTest, DeterministicGivenSeed) {
  std::vector<std::vector<double>> points;
  Rng noise(9);
  for (int i = 0; i < 60; ++i) {
    points.push_back({noise.NextDouble() * 10, noise.NextDouble() * 10});
  }
  Rng rng_a(42);
  Rng rng_b(42);
  auto a = KMeans(points, 3, rng_a);
  auto b = KMeans(points, 3, rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignment, b->assignment);
  EXPECT_DOUBLE_EQ(a->inertia, b->inertia);
}

TEST(VertexStructuralFeaturesTest, HubStandsOut) {
  // Star graph: the hub's feature vector differs strongly from leaves'.
  Graph g;
  ASSERT_TRUE(g.AddVertex(0).ok());
  for (VertexId v = 1; v <= 20; ++v) {
    ASSERT_TRUE(g.AddVertex(v).ok());
    ASSERT_TRUE(g.AddEdge(0, v).ok());
  }
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const auto features = VertexStructuralFeatures(csr);
  ASSERT_EQ(features.size(), 21u);
  CsrGraph::Index hub;
  ASSERT_TRUE(csr.IndexOf(0, &hub));
  // Hub out-degree 20 vs leaves 0.
  EXPECT_GT(features[hub][0], 2.9);
  for (size_t v = 0; v < features.size(); ++v) {
    if (v != hub) {
      EXPECT_DOUBLE_EQ(features[v][0], 0.0);
    }
  }
}

TEST(VertexStructuralFeaturesTest, ClusteringSeparatesHubsFromLeaves) {
  // Two hubs with leaf fans; k-means over structural features should
  // separate hubs from leaves.
  Graph g;
  ASSERT_TRUE(g.AddVertex(100).ok());
  ASSERT_TRUE(g.AddVertex(200).ok());
  for (VertexId v = 0; v < 30; ++v) {
    ASSERT_TRUE(g.AddVertex(v).ok());
    ASSERT_TRUE(g.AddEdge(v < 15 ? 100 : 200, v).ok());
  }
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const auto features = VertexStructuralFeatures(csr);
  Rng rng(11);
  auto r = KMeans(features, 2, rng);
  ASSERT_TRUE(r.ok());
  CsrGraph::Index hub_a;
  CsrGraph::Index hub_b;
  ASSERT_TRUE(csr.IndexOf(100, &hub_a));
  ASSERT_TRUE(csr.IndexOf(200, &hub_b));
  EXPECT_EQ(r->assignment[hub_a], r->assignment[hub_b]);
  CsrGraph::Index leaf;
  ASSERT_TRUE(csr.IndexOf(3, &leaf));
  EXPECT_NE(r->assignment[hub_a], r->assignment[leaf]);
}

}  // namespace
}  // namespace graphtides
