// Tests for the simple random walk and the weighted random walk against
// classical closed-form facts (stationarity, return times, cover times).
#include <gtest/gtest.h>

#include <cmath>

#include "engine/driver.hpp"
#include "graph/generators.hpp"
#include "walks/srw.hpp"
#include "walks/weighted.hpp"

namespace ewalk {
namespace {

TEST(Srw, VisitsFollowStationaryDistribution) {
  // π_v = d(v)/2m; run long and compare visit frequencies on the lollipop
  // (heterogeneous degrees).
  const Graph g = lollipop(6, 4);
  Rng rng(1);
  SimpleRandomWalk walk(g, 0);
  const std::uint64_t steps = 400000;
  for (std::uint64_t i = 0; i < steps; ++i) walk.step(rng);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const double freq = static_cast<double>(walk.cover().visit_count(v)) / steps;
    EXPECT_NEAR(freq, g.stationary_probability(v), 0.01) << "vertex " << v;
  }
}

TEST(Srw, ExpectedReturnTimeIsInverseStationary) {
  // E_u T_u^+ = 1/π_u (Section 2.2 of the paper).
  const Graph g = lollipop(5, 3);
  const Vertex u = 0;  // clique vertex
  Rng rng(2);
  const int kTrials = 4000;
  double total = 0;
  for (int t = 0; t < kTrials; ++t) {
    SimpleRandomWalk walk(g, u);
    do {
      walk.step(rng);
    } while (walk.current() != u);
    total += static_cast<double>(walk.steps());
  }
  const double expected = 1.0 / g.stationary_probability(u);
  EXPECT_NEAR(total / kTrials, expected, expected * 0.1);
}

TEST(Srw, CycleCoverTimeIsQuadratic) {
  // C_V(C_n) = n(n-1)/2 exactly for the SRW on a cycle.
  const Vertex n = 40;
  const Graph g = cycle_graph(n);
  Rng rng(3);
  const int kTrials = 300;
  double total = 0;
  for (int t = 0; t < kTrials; ++t) {
    SimpleRandomWalk walk(g, 0);
    ASSERT_TRUE(run_until(walk, rng, VertexCovered{}, 1u << 24));
    total += static_cast<double>(walk.cover().vertex_cover_step());
  }
  const double expected = n * (n - 1) / 2.0;
  EXPECT_NEAR(total / kTrials, expected, expected * 0.12);
}

TEST(Srw, CompleteGraphCoverIsCouponCollector) {
  // K_n cover time ≈ (n-1) H_{n-1} ≈ n ln n.
  const Vertex n = 30;
  const Graph g = complete_graph(n);
  Rng rng(4);
  const int kTrials = 400;
  double total = 0;
  for (int t = 0; t < kTrials; ++t) {
    SimpleRandomWalk walk(g, 0);
    ASSERT_TRUE(run_until(walk, rng, VertexCovered{}, 1u << 22));
    total += static_cast<double>(walk.cover().vertex_cover_step());
  }
  double expected = 0;
  for (int k = 1; k <= static_cast<int>(n) - 1; ++k) expected += 1.0 / k;
  expected *= (n - 1);
  EXPECT_NEAR(total / kTrials, expected, expected * 0.1);
}

TEST(Srw, CoverStateBookkeeping) {
  const Graph g = path_graph(4);
  Rng rng(5);
  SimpleRandomWalk walk(g, 0);
  EXPECT_EQ(walk.cover().vertices_covered(), 1u);
  EXPECT_TRUE(walk.cover().vertex_visited(0));
  EXPECT_FALSE(walk.cover().all_vertices_covered());
  ASSERT_TRUE(run_until(walk, rng, VertexCovered{}, 100000));
  EXPECT_EQ(walk.cover().vertices_covered(), 4u);
  EXPECT_LE(walk.cover().vertex_cover_step(), walk.steps());
  EXPECT_NE(walk.cover().vertex_cover_step(), kNotCovered);
}

TEST(Srw, EdgeCoverOnSmallGraph) {
  const Graph g = petersen_graph();
  Rng rng(6);
  SimpleRandomWalk walk(g, 0);
  ASSERT_TRUE(run_until(walk, rng, EdgesCovered{}, 1u << 22));
  EXPECT_TRUE(walk.cover().all_edges_covered());
  EXPECT_GE(walk.cover().edge_cover_step(), g.num_edges());
}

TEST(Srw, LazyWalkStillCovers) {
  // Bipartite K_{3,3}: the lazy walk mixes and covers fine.
  const Graph g = complete_bipartite(3, 3);
  Rng rng(7);
  SimpleRandomWalk walk(g, 0, SrwOptions{.lazy = true});
  ASSERT_TRUE(run_until(walk, rng, VertexCovered{}, 1u << 22));
  EXPECT_TRUE(walk.cover().all_vertices_covered());
}

TEST(Srw, LazyHoldsRoughlyHalfTheTime) {
  const Graph g = cycle_graph(10);
  Rng rng(8);
  SimpleRandomWalk walk(g, 0, SrwOptions{.lazy = true});
  std::uint64_t moves = 0;
  Vertex prev = walk.current();
  const std::uint64_t steps = 20000;
  for (std::uint64_t i = 0; i < steps; ++i) {
    walk.step(rng);
    if (walk.current() != prev) ++moves;
    prev = walk.current();
  }
  EXPECT_NEAR(static_cast<double>(moves) / steps, 0.5, 0.03);
}

TEST(Srw, RunUntilVisitCount) {
  const Graph g = complete_graph(8);
  Rng rng(9);
  SimpleRandomWalk walk(g, 0);
  ASSERT_TRUE(run_until(walk, rng, MinVisitCountAtLeast{3}, 1u << 22,
                        visit_count_stride(g)));
  EXPECT_GE(walk.cover().min_visit_count(), 3u);
}

// ---- Weighted walk ---------------------------------------------------------

TEST(AliasTable, MatchesWeights) {
  Rng rng(10);
  AliasTable table(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  std::vector<int> counts(4, 0);
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[table.sample(rng)];
  for (int i = 0; i < 4; ++i)
    EXPECT_NEAR(counts[i] / static_cast<double>(kDraws), (i + 1) / 10.0, 0.01);
}

TEST(AliasTable, SingleAndUniform) {
  Rng rng(11);
  AliasTable one(std::vector<double>{5.0});
  for (int i = 0; i < 10; ++i) EXPECT_EQ(one.sample(rng), 0u);
  EXPECT_THROW(AliasTable(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{-1.0, 2.0}), std::invalid_argument);
}

TEST(Weighted, UniformWeightsMatchSrwStationary) {
  const Graph g = lollipop(5, 3);
  WeightedRandomWalk walk(g, 0, std::vector<double>(g.num_edges(), 1.0));
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    EXPECT_NEAR(walk.stationary_probability(v), g.stationary_probability(v), 1e-12);
}

TEST(Weighted, VisitsFollowWeightedStationary) {
  // Weight edge {0,1} of a triangle heavily; π_v ∝ total incident weight.
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  const Graph g = b.build();
  const std::vector<double> w{8.0, 1.0, 1.0};
  WeightedRandomWalk walk(g, 0, w);
  Rng rng(12);
  const std::uint64_t steps = 300000;
  for (std::uint64_t i = 0; i < steps; ++i) walk.step(rng);
  for (Vertex v = 0; v < 3; ++v) {
    const double freq = static_cast<double>(walk.cover().visit_count(v)) / steps;
    EXPECT_NEAR(freq, walk.stationary_probability(v), 0.01);
  }
}

TEST(Weighted, CoversGraph) {
  const Graph g = petersen_graph();
  Rng rng(13);
  WeightedRandomWalk walk(g, 0, std::vector<double>(g.num_edges(), 1.0));
  ASSERT_TRUE(run_until(walk, rng, VertexCovered{}, 1u << 22));
}

TEST(Weighted, RejectsBadWeights) {
  const Graph g = cycle_graph(4);
  EXPECT_THROW(WeightedRandomWalk(g, 0, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(WeightedRandomWalk(g, 0, {1.0, 1.0, 0.0, 1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace ewalk
