// Tests for graph generators, including parameterized sweeps over the
// random families (Steger–Wormald regular graphs are the paper's substrate).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <tuple>
#include <vector>

#include "engine/adapters.hpp"
#include "engine/driver.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"
#include "util/thread_pool.hpp"
#include "walks/rules.hpp"

namespace ewalk {
namespace {

// Give the Executor four workers even on single-core CI runners, so the
// union-find above the part grain links from several threads at once.
// Runs before main(), i.e. before the first Executor::instance() call in
// this binary; an explicit EWALK_WORKERS in the environment wins.
const bool kWorkersEnvSet = [] {
  setenv("EWALK_WORKERS", "4", /*overwrite=*/0);
  return true;
}();

TEST(Deterministic, CycleGraph) {
  const Graph g = cycle_graph(7);
  EXPECT_EQ(g.num_vertices(), 7u);
  EXPECT_EQ(g.num_edges(), 7u);
  EXPECT_TRUE(g.is_regular(2));
  EXPECT_TRUE(is_connected(g));
  EXPECT_THROW(cycle_graph(2), std::invalid_argument);
}

TEST(Deterministic, CompleteGraph) {
  const Graph g = complete_graph(6);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_TRUE(g.is_regular(5));
  EXPECT_TRUE(g.is_simple());
}

TEST(Deterministic, CompleteBipartite) {
  const Graph g = complete_bipartite(3, 4);
  EXPECT_EQ(g.num_vertices(), 7u);
  EXPECT_EQ(g.num_edges(), 12u);
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_EQ(g.degree(3), 3u);
}

TEST(Deterministic, Petersen) {
  const Graph g = petersen_graph();
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_TRUE(g.is_regular(3));
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(g.is_simple());
}

TEST(Deterministic, Hypercube) {
  const Graph g = hypercube(5);
  EXPECT_EQ(g.num_vertices(), 32u);
  EXPECT_EQ(g.num_edges(), 80u);
  EXPECT_TRUE(g.is_regular(5));
  EXPECT_TRUE(is_connected(g));
}

TEST(Deterministic, TorusIsFourRegularEvenDegree) {
  const Graph g = torus_2d(5, 4);
  EXPECT_EQ(g.num_vertices(), 20u);
  EXPECT_TRUE(g.is_regular(4));
  EXPECT_TRUE(g.all_degrees_even());
  EXPECT_TRUE(is_connected(g));
}

TEST(Deterministic, GridCornersAndInterior) {
  const Graph g = grid_2d(4, 3);
  EXPECT_EQ(g.degree(0), 2u);       // corner
  EXPECT_EQ(g.degree(5), 4u);       // interior (x=1,y=1)
  EXPECT_EQ(g.num_edges(), 3u * 3 + 4u * 2);  // horizontal + vertical
}

TEST(Deterministic, LollipopAndBarbell) {
  const Graph l = lollipop(5, 3);
  EXPECT_EQ(l.num_vertices(), 8u);
  EXPECT_EQ(l.num_edges(), 10u + 3u);
  EXPECT_TRUE(is_connected(l));
  EXPECT_EQ(l.degree(7), 1u);  // path tip

  const Graph b = barbell(4, 2);
  EXPECT_EQ(b.num_vertices(), 10u);
  EXPECT_TRUE(is_connected(b));
}

TEST(Deterministic, CirculantEvenDegree) {
  const Graph g = circulant(12, {1, 3});
  EXPECT_TRUE(g.is_regular(4));
  EXPECT_TRUE(g.all_degrees_even());
  EXPECT_TRUE(is_connected(g));
  EXPECT_THROW(circulant(10, {5}), std::invalid_argument);  // n/2 offset
  EXPECT_THROW(circulant(10, {0}), std::invalid_argument);
}

TEST(Deterministic, BinaryTree) {
  const Graph g = binary_tree(4);
  EXPECT_EQ(g.num_vertices(), 15u);
  EXPECT_EQ(g.num_edges(), 14u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Deterministic, StarGraph) {
  const Graph g = star_graph(6);
  EXPECT_EQ(g.degree(0), 5u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Deterministic, MargulisExpander) {
  const Graph g = margulis_expander(12);
  EXPECT_EQ(g.num_vertices(), 144u);
  EXPECT_TRUE(g.is_regular(8));       // loops count twice
  EXPECT_TRUE(g.all_degrees_even());
  EXPECT_TRUE(is_connected(g));
  EXPECT_THROW(margulis_expander(1), std::invalid_argument);
}

TEST(Deterministic, MargulisIsDeterministic) {
  const Graph a = margulis_expander(9);
  const Graph b = margulis_expander(9);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.endpoints(e).u, b.endpoints(e).u);
    EXPECT_EQ(a.endpoints(e).v, b.endpoints(e).v);
  }
}

// ---- Random regular graphs (paper's generator) ---------------------------

class RandomRegularTest
    : public ::testing::TestWithParam<std::tuple<Vertex, std::uint32_t, std::uint64_t>> {};

TEST_P(RandomRegularTest, ProducesSimpleRegularGraph) {
  const auto [n, r, seed] = GetParam();
  Rng rng(seed);
  const Graph g = random_regular(n, r, rng);
  EXPECT_EQ(g.num_vertices(), n);
  EXPECT_EQ(g.num_edges(), static_cast<EdgeId>(static_cast<std::uint64_t>(n) * r / 2));
  EXPECT_TRUE(g.is_regular(r));
  EXPECT_TRUE(g.is_simple());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomRegularTest,
    ::testing::Combine(::testing::Values<Vertex>(10, 50, 200, 1000),
                       ::testing::Values<std::uint32_t>(3, 4, 5, 6, 7),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(RandomRegular, ConnectedVariantIsConnected) {
  Rng rng(77);
  for (int i = 0; i < 5; ++i) {
    const Graph g = random_regular_connected(100, 4, rng);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(RandomRegular, RejectsBadParameters) {
  Rng rng(1);
  EXPECT_THROW(random_regular(5, 3, rng), std::invalid_argument);   // odd n*r
  EXPECT_THROW(random_regular(4, 4, rng), std::invalid_argument);   // r >= n
}

TEST(RandomRegular, DifferentSeedsGiveDifferentGraphs) {
  Rng a(100), b(200);
  const Graph ga = random_regular(60, 4, a);
  const Graph gb = random_regular(60, 4, b);
  // Compare edge sets via sorted endpoint keys.
  auto key = [](const Graph& g) {
    std::vector<std::uint64_t> ks;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [u, v] = g.endpoints(e);
      ks.push_back((static_cast<std::uint64_t>(std::min(u, v)) << 32) | std::max(u, v));
    }
    std::sort(ks.begin(), ks.end());
    return ks;
  };
  EXPECT_NE(key(ga), key(gb));
}

// ---- Pairing model + edge-swap repair -------------------------------------
//
// random_regular_pairing is the sweep subsystem's fast generator; it must
// satisfy exactly the invariants the Steger–Wormald reference does (simple,
// r-regular, n*r/2 edges) and, since the edge-swap repair perturbs the
// distribution, a KS-style check below cross-validates downstream cover-time
// samples against the reference generator.

class RandomRegularPairingTest
    : public ::testing::TestWithParam<std::tuple<Vertex, std::uint32_t, std::uint64_t>> {};

TEST_P(RandomRegularPairingTest, MatchesStegerWormaldDegreeInvariants) {
  const auto [n, r, seed] = GetParam();
  Rng rng(seed);
  const Graph g = random_regular_pairing(n, r, rng);
  EXPECT_EQ(g.num_vertices(), n);
  EXPECT_EQ(g.num_edges(), static_cast<EdgeId>(static_cast<std::uint64_t>(n) * r / 2));
  EXPECT_TRUE(g.is_regular(r));
  EXPECT_TRUE(g.is_simple());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomRegularPairingTest,
    ::testing::Combine(::testing::Values<Vertex>(10, 50, 200, 1000),
                       ::testing::Values<std::uint32_t>(3, 4, 5, 6, 7),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(RandomRegularPairing, ConnectedVariantIsConnected) {
  Rng rng(77);
  for (int i = 0; i < 5; ++i) {
    const Graph g = random_regular_pairing_connected(100, 3, rng);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(RandomRegularPairing, RejectsBadParameters) {
  Rng rng(1);
  EXPECT_THROW(random_regular_pairing(5, 3, rng), std::invalid_argument);  // odd n*r
  EXPECT_THROW(random_regular_pairing(4, 4, rng), std::invalid_argument);  // r >= n
}

TEST(RandomRegularPairing, DeterministicGivenSeedDistinctAcrossSeeds) {
  const auto edges = [](std::uint64_t seed) {
    Rng rng(seed);
    const Graph g = random_regular_pairing(80, 4, rng);
    std::vector<std::uint64_t> ks;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [u, v] = g.endpoints(e);
      ks.push_back((static_cast<std::uint64_t>(std::min(u, v)) << 32) |
                   std::max(u, v));
    }
    std::sort(ks.begin(), ks.end());
    return ks;
  };
  EXPECT_EQ(edges(42), edges(42));
  EXPECT_NE(edges(42), edges(43));
}

TEST(RandomRegularPairing, HandlesDenseDegreesWithoutRestartThrash) {
  // r this close to n makes restart-based generation (expected restarts
  // e^{Θ(r²)} in the plain pairing model) hopeless; the swap repair must
  // still terminate and produce a simple regular graph.
  Rng rng(9);
  const Graph g = random_regular_pairing(60, 40, rng);
  EXPECT_TRUE(g.is_regular(40));
  EXPECT_TRUE(g.is_simple());
}

// Two-sample Kolmogorov–Smirnov statistic sup_x |F_a(x) - F_b(x)|.
double ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double d = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] <= b[j])
      ++i;
    else
      ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / a.size() -
                             static_cast<double>(j) / b.size()));
  }
  return d;
}

TEST(RandomRegularPairing, CoverTimeSamplesAgreeWithStegerWormaldKS) {
  // Downstream cross-validation: E-process vertex cover times on 3-regular
  // n=200 graphs drawn from each generator must come from indistinguishable
  // distributions. Two-sample KS with 50 trials per side: the alpha = 0.001
  // critical value is 1.95 * sqrt(2/50) ~ 0.39 (fixed seeds keep the check
  // deterministic; the margin guards the repair step against gross bias).
  const std::uint32_t kTrials = 50;
  const auto sample = [&](bool pairing, std::uint64_t seed) {
    std::vector<double> out;
    std::vector<Rng> streams = derive_streams(seed, kTrials);
    for (Rng& rng : streams) {
      const Graph g = pairing ? random_regular_pairing_connected(200, 3, rng)
                              : random_regular_connected(200, 3, rng);
      EProcessHandle walk(g, 0, std::make_unique<UniformRule>());
      EXPECT_TRUE(run_until(walk, rng, VertexCovered{}, 1u << 24));
      out.push_back(static_cast<double>(walk.cover().vertex_cover_step()));
    }
    return out;
  };
  const double d = ks_statistic(sample(true, 11), sample(false, 12));
  EXPECT_LT(d, 0.39) << "cover-time distributions diverged between the "
                        "pairing and Steger-Wormald generators";
}

// ---- Configuration model --------------------------------------------------

TEST(ConfigurationModel, SimpleRespectsDegreeSequence) {
  Rng rng(5);
  const std::vector<std::uint32_t> degrees{4, 4, 4, 4, 2, 2, 2, 2, 2, 2};
  const Graph g = configuration_model(degrees, rng, /*simple=*/true);
  EXPECT_TRUE(g.is_simple());
  for (Vertex v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), degrees[v]);
}

TEST(ConfigurationModel, MultigraphKeepsDegrees) {
  Rng rng(6);
  const std::vector<std::uint32_t> degrees{6, 6, 4, 4, 4};
  const Graph g = configuration_model(degrees, rng, /*simple=*/false);
  for (Vertex v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), degrees[v]);
}

TEST(ConfigurationModel, RejectsOddSum) {
  Rng rng(7);
  EXPECT_THROW(configuration_model({3, 2}, rng, false), std::invalid_argument);
}

// ---- Hamiltonian cycle union ----------------------------------------------

class HamUnionTest
    : public ::testing::TestWithParam<std::tuple<Vertex, std::uint32_t, std::uint64_t>> {};

TEST_P(HamUnionTest, EvenRegularConnectedSimple) {
  const auto [n, k, seed] = GetParam();
  Rng rng(seed);
  const Graph g = hamiltonian_cycle_union(n, k, rng);
  EXPECT_TRUE(g.is_regular(2 * k));
  EXPECT_TRUE(g.all_degrees_even());
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(g.is_simple());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HamUnionTest,
    ::testing::Combine(::testing::Values<Vertex>(20, 100, 500),
                       ::testing::Values<std::uint32_t>(1, 2, 3),
                       ::testing::Values<std::uint64_t>(11, 12)));

// ---- Erdős–Rényi and geometric --------------------------------------------

TEST(ErdosRenyi, EdgeCountNearExpectation) {
  Rng rng(8);
  const Vertex n = 500;
  const double p = 0.02;
  const Graph g = erdos_renyi(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_GT(g.num_edges(), expected * 0.8);
  EXPECT_LT(g.num_edges(), expected * 1.2);
  EXPECT_TRUE(g.is_simple());
}

TEST(ErdosRenyi, ExtremeProbabilities) {
  Rng rng(9);
  EXPECT_EQ(erdos_renyi(10, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(erdos_renyi(10, 1.0, rng).num_edges(), 45u);
}

TEST(RandomGeometric, MatchesBruteForce) {
  Rng rng(10);
  const Graph g = random_geometric(200, 0.15, rng);
  EXPECT_TRUE(g.is_simple());
  // With radius 0.15 on 200 points expect roughly pi*r^2*n^2/2 edges (minus
  // boundary effects) — sanity-band check.
  const double expected = 3.14159 * 0.15 * 0.15 * 200.0 * 199.0 / 2.0;
  EXPECT_GT(g.num_edges(), expected * 0.5);
  EXPECT_LT(g.num_edges(), expected * 1.2);
}

TEST(RandomGeometric, LargeRadiusIsComplete) {
  Rng rng(11);
  const Graph g = random_geometric(30, 2.0, rng);
  EXPECT_EQ(g.num_edges(), 30u * 29 / 2);
}

// ---- Generation ↔ connectivity contract -----------------------------------
//
// The connected variants must decide retries with a union-find over the
// edge list (see docs/ARCHITECTURE.md): edge_list_connected has to agree
// with BFS is_connected on every multigraph, and the generators must never
// call is_connected themselves — pinned here through the BFS counter.

TEST(EdgeListConnected, AgreesWithBfsOnAdversarialInputs) {
  struct Case {
    const char* what;
    Vertex n;
    std::vector<Endpoints> edges;
  };
  const std::vector<Case> cases = {
      {"empty graph", 0, {}},
      {"single vertex, no edges", 1, {}},
      {"single vertex, self-loop", 1, {{0, 0}}},
      {"isolated vertex", 2, {}},
      {"one edge", 2, {{0, 1}}},
      {"self-loops only (disconnected)", 3, {{0, 0}, {1, 1}, {2, 2}}},
      {"parallel edges, connected", 3, {{0, 1}, {0, 1}, {1, 2}}},
      {"parallel edges + loop, isolated third", 3, {{0, 1}, {0, 1}, {0, 0}}},
      {"triangle plus isolated", 4, {{0, 1}, {1, 2}, {2, 0}}},
      {"two components, loops and multi-edges",
       6,
       {{0, 1}, {1, 2}, {2, 0}, {2, 2}, {3, 4}, {4, 5}, {5, 3}, {3, 4}}},
      {"path hitting every vertex", 5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
  };
  for (const Case& c : cases) {
    const Graph g = Graph::from_edges(c.n, std::vector<Endpoints>(c.edges));
    EXPECT_EQ(edge_list_connected(c.n, c.edges), is_connected(g)) << c.what;
  }
}

TEST(EdgeListConnected, AgreesWithBfsOnBarelyDisconnectedRegular) {
  // Two disjoint random 4-regular halves: r-regular overall, min degree
  // fine, yet disconnected — exactly the instance a degree-based or
  // min-degree shortcut would misclassify.
  Rng rng(5);
  const Graph a = random_regular_pairing(50, 4, rng);
  const Graph b = random_regular_pairing(50, 4, rng);
  std::vector<Endpoints> edges;
  for (EdgeId e = 0; e < a.num_edges(); ++e) edges.push_back(a.endpoints(e));
  for (EdgeId e = 0; e < b.num_edges(); ++e) {
    const auto [u, v] = b.endpoints(e);
    edges.push_back({u + 50, v + 50});
  }
  EXPECT_FALSE(edge_list_connected(100, edges));
  // One bridge makes it connected again.
  edges.push_back({0, 50});
  EXPECT_TRUE(edge_list_connected(100, edges));
  const Graph joined = Graph::from_edges(100, std::move(edges));
  EXPECT_TRUE(is_connected(joined));
}

TEST(EdgeListConnected, AgreesWithBfsAboveThePartGrain) {
  // The same three instances at over twice the part grain, where the
  // union-find links from several parts concurrently: two disjoint 4-regular
  // halves, the same with one bridge, and a connected graph plus one
  // isolated vertex.
  constexpr Vertex kHalf = 550'000;
  Rng rng(9);
  const Graph a = random_regular_pairing_connected(kHalf, 4, rng);
  const Graph b = random_regular_pairing_connected(kHalf, 4, rng);
  EdgeList edges;
  for (EdgeId e = 0; e < a.num_edges(); ++e) edges.push_back(a.endpoints(e));
  for (EdgeId e = 0; e < b.num_edges(); ++e) {
    const auto [u, v] = b.endpoints(e);
    edges.push_back({u + kHalf, v + kHalf});
  }
  ASSERT_GT(part_count(edges.size()), 1u);
  const auto agrees = [](Vertex n, const EdgeList& list, bool connected) {
    EXPECT_EQ(edge_list_connected(n, list), connected);
    EXPECT_EQ(is_connected(Graph::from_edges(n, list)), connected);
  };
  agrees(2 * kHalf, edges, false);
  edges.push_back({kHalf - 1, kHalf});
  agrees(2 * kHalf, edges, true);
  agrees(2 * kHalf + 1, edges, false);
}

TEST(GenerationCounters, ConnectedGeneratorsNeverCallBfs) {
  Rng rng(123);
  reset_generation_counters();
  const std::uint64_t bfs_before = connectivity_bfs_calls();
  for (int i = 0; i < 3; ++i) {
    const Graph g = random_regular_pairing_connected(300, 3, rng);
    EXPECT_TRUE(g.is_regular(3));
  }
  for (int i = 0; i < 3; ++i) {
    const Graph g = random_regular_connected(200, 4, rng);
    EXPECT_TRUE(g.is_regular(4));
  }
  EXPECT_EQ(connectivity_bfs_calls(), bfs_before)
      << "generation fell back to a BFS connectivity check";
  const GenerationCounters gc = generation_counters();
  EXPECT_GE(gc.pairing_attempts, 3u);
  EXPECT_GE(gc.sw_attempts, 3u);
}

TEST(GenerationCounters, ConnectedVariantsRejectUncoverableDegreeZero) {
  // r = 0 with n > 1 can never be connected; the connected variants throw
  // instead of looping forever (the unconstrained ones still accept it).
  Rng rng(1);
  EXPECT_THROW(random_regular_connected(4, 0, rng), std::invalid_argument);
  EXPECT_THROW(random_regular_pairing_connected(4, 0, rng),
               std::invalid_argument);
  EXPECT_EQ(random_regular(4, 0, rng).num_edges(), 0u);
}

}  // namespace
}  // namespace ewalk
