// Property-style sweeps pinning the library against closed-form mathematics
// that is independent of the implementation:
//   * circulant graph spectra (sums of cosines),
//   * hypercube spectra (1 - 2k/r with binomial multiplicities),
//   * stationary first-visit ordering,
//   * E-process cover-time exactness on trees-with-one-cycle etc.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <tuple>

#include "engine/driver.hpp"
#include "graph/generators.hpp"
#include "spectral/spectrum.hpp"
#include "walks/eprocess.hpp"
#include "walks/rules.hpp"

namespace ewalk {
namespace {

// Circulant C_n(o_1..o_k) transition eigenvalues: for j = 0..n-1,
//   λ_j = (1/k) Σ_i cos(2π j o_i / n).
class CirculantSpectrum
    : public ::testing::TestWithParam<std::tuple<Vertex, std::vector<std::uint32_t>>> {};

TEST_P(CirculantSpectrum, MatchesCosineFormula) {
  const auto& [n, offsets] = GetParam();
  const Graph g = circulant(n, offsets);
  const auto eig = dense_spectrum(g);
  std::vector<double> expected;
  for (Vertex j = 0; j < n; ++j) {
    double acc = 0;
    for (const auto o : offsets)
      acc += std::cos(2.0 * std::numbers::pi * j * o / n);
    expected.push_back(acc / offsets.size());
  }
  std::sort(expected.begin(), expected.end(), std::greater<>());
  ASSERT_EQ(eig.size(), expected.size());
  for (std::size_t i = 0; i < eig.size(); ++i)
    EXPECT_NEAR(eig[i], expected[i], 1e-7) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Families, CirculantSpectrum,
    ::testing::Values(std::make_tuple(Vertex{8}, std::vector<std::uint32_t>{1}),
                      std::make_tuple(Vertex{12}, std::vector<std::uint32_t>{1, 2}),
                      std::make_tuple(Vertex{15}, std::vector<std::uint32_t>{1, 4}),
                      std::make_tuple(Vertex{16}, std::vector<std::uint32_t>{1, 2, 3}),
                      std::make_tuple(Vertex{20}, std::vector<std::uint32_t>{2, 5})));

TEST(HypercubeSpectrum, BinomialMultiplicities) {
  // H_r: eigenvalue 1 - 2k/r with multiplicity C(r, k).
  const std::uint32_t r = 5;
  const auto eig = dense_spectrum(hypercube(r));
  std::vector<double> expected;
  for (std::uint32_t k = 0; k <= r; ++k) {
    std::uint64_t binom = 1;
    for (std::uint32_t i = 0; i < k; ++i) binom = binom * (r - i) / (i + 1);
    for (std::uint64_t c = 0; c < binom; ++c)
      expected.push_back(1.0 - 2.0 * k / r);
  }
  std::sort(expected.begin(), expected.end(), std::greater<>());
  ASSERT_EQ(eig.size(), expected.size());
  for (std::size_t i = 0; i < eig.size(); ++i) EXPECT_NEAR(eig[i], expected[i], 1e-7);
}

// On any even-degree connected graph, the E-process's first blue phase
// traverses a closed trail from the start; if the graph is *Eulerian-cover
// sized* (every edge reachable without red steps at all — true for any
// connected even-degree graph by Euler's theorem when the rule is free to
// choose), an entire Euler tour is possible. The uniform rule won't always
// find it, but blue_steps == m at edge cover for every even graph.
class EvenGraphEdgeCover
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(EvenGraphEdgeCover, BlueStepsEqualEdges) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed);
  Graph g = [&]() -> Graph {
    switch (kind) {
      case 0:
        return torus_2d(6, 5);
      case 1:
        return hamiltonian_cycle_union(64, 3, rng);
      case 2:
        return random_regular_connected(48, 6, rng);
      default:
        return margulis_expander(7);
    }
  }();
  UniformRule rule;
  EProcess walk(g, static_cast<Vertex>(rng.uniform(g.num_vertices())), rule);
  ASSERT_TRUE(run_until(walk, rng, EdgesCovered{}, 1u << 24));
  EXPECT_EQ(walk.blue_steps(), static_cast<std::uint64_t>(g.num_edges()));
}

INSTANTIATE_TEST_SUITE_P(KindsAndSeeds, EvenGraphEdgeCover,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values<std::uint64_t>(1, 2, 3, 4)));

TEST(FirstVisitTimes, RespectCoverStep) {
  // The step at which vertices_covered() last grows is vertex_cover_step,
  // and the start vertex counts as covered at step 0.
  Rng rng(5);
  const Graph g = random_regular_connected(200, 4, rng);
  UniformRule rule;
  EProcess walk(g, 0, rule);
  ASSERT_TRUE(walk.cover().vertex_visited(0));
  ASSERT_EQ(walk.cover().vertices_covered(), 1u);
  std::uint32_t covered = walk.cover().vertices_covered();
  std::uint64_t last_growth = 0;
  while (!walk.cover().all_vertices_covered() && walk.steps() < (1u << 24)) {
    walk.step(rng);
    ASSERT_EQ(walk.cover().vertex_cover_step() != kNotCovered,
              walk.cover().all_vertices_covered());
    if (walk.cover().vertices_covered() > covered) {
      ASSERT_EQ(walk.cover().vertices_covered(), covered + 1);
      covered = walk.cover().vertices_covered();
      last_growth = walk.steps();
    }
  }
  ASSERT_TRUE(walk.cover().all_vertices_covered());
  EXPECT_EQ(last_growth, walk.cover().vertex_cover_step());
}

TEST(FirstVisitTimes, EProcessFirstVisitsAlwaysBlue) {
  // Any edge into an unvisited vertex is itself unvisited, so every first
  // visit must happen on a blue transition. Verify by checking that the
  // number of vertices covered never increases on a red step.
  Rng grng(6);
  const Graph g = random_regular_connected(150, 4, grng);
  UniformRule rule;
  EProcess walk(g, 0, rule);
  Rng rng(7);
  std::uint32_t covered = walk.cover().vertices_covered();
  while (!walk.cover().all_vertices_covered()) {
    const StepColor color = walk.step(rng);
    if (walk.cover().vertices_covered() > covered) {
      EXPECT_EQ(color, StepColor::kBlue);
      covered = walk.cover().vertices_covered();
    }
  }
}

TEST(Determinism, WholePipelineIsReproducible) {
  // Graph generation + E-process + cover statistics are a pure function of
  // the seed.
  const auto run = [](std::uint64_t seed) {
    Rng rng(seed);
    const Graph g = random_regular_connected(300, 4, rng);
    UniformRule rule;
    EProcess walk(g, 0, rule);
    run_until(walk, rng, EdgesCovered{}, 1u << 26);
    return std::make_tuple(walk.steps(), walk.red_steps(),
                           walk.cover().vertex_cover_step(),
                           walk.cover().edge_cover_step());
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(std::get<0>(run(42)), std::get<0>(run(43)));
}

TEST(CoverState, MinVisitCountTracksBlanket) {
  Rng rng(8);
  const Graph g = complete_graph(12);
  UniformRule rule;
  EProcess walk(g, 0, rule);
  EXPECT_EQ(walk.cover().min_visit_count(), 0u);
  ASSERT_TRUE(run_until(walk, rng, VertexCovered{}, 1u << 22));
  EXPECT_GE(walk.cover().min_visit_count(), 1u);
}

}  // namespace
}  // namespace ewalk
