// Tests for hitting/return/commute times and the visit-all-r-times
// measurement, validating the paper's Section 2 toolbox with exact
// linear-algebra numbers.
#include <gtest/gtest.h>

#include <cmath>

#include "covertime/blanket.hpp"
#include "covertime/hitting.hpp"
#include "graph/generators.hpp"
#include "graph/transforms.hpp"
#include "spectral/spectrum.hpp"

namespace ewalk {
namespace {

TEST(Hitting, PathClosedForm) {
  // On a path 0-1-2, E_0(H_2): known values via h(u) = 1 + avg h(w).
  // Standard result for P_3: h(0->2) = 4, h(1->2) = 3.
  const Graph g = path_graph(3);
  const auto h = exact_hitting_times(g, 2);
  EXPECT_NEAR(h[0], 4.0, 1e-9);
  EXPECT_NEAR(h[1], 3.0, 1e-9);
  EXPECT_NEAR(h[2], 0.0, 1e-9);
}

TEST(Hitting, CompleteGraphUniform) {
  // K_n: E_u(H_v) = n - 1 for u != v.
  const Graph g = complete_graph(7);
  const auto h = exact_hitting_times(g, 3);
  for (Vertex u = 0; u < 7; ++u) {
    if (u == 3) continue;
    EXPECT_NEAR(h[u], 6.0, 1e-9);
  }
}

TEST(Hitting, CycleQuadratic) {
  // C_n: E_u(H_v) = d(n - d) where d is the cycle distance from u to v.
  const Vertex n = 10;
  const Graph g = cycle_graph(n);
  const auto h = exact_hitting_times(g, 0);
  for (Vertex u = 1; u < n; ++u) {
    const double d = std::min<double>(u, n - u);
    EXPECT_NEAR(h[u], d * (n - d), 1e-8) << u;
  }
}

TEST(Hitting, CommuteTimeSymmetricDefinition) {
  Rng rng(3);
  const Graph g = random_regular_connected(40, 4, rng);
  EXPECT_NEAR(exact_commute_time(g, 1, 7), exact_commute_time(g, 7, 1), 1e-9);
}

TEST(Hitting, CommuteTimeViaEffectiveResistance) {
  // On a tree, K(u,v) = 2m * dist(u,v) (resistance = path length).
  const Graph g = path_graph(6);
  const double m = g.num_edges();
  EXPECT_NEAR(exact_commute_time(g, 0, 5), 2.0 * m * 5, 1e-8);
  EXPECT_NEAR(exact_commute_time(g, 1, 3), 2.0 * m * 2, 1e-8);
}

TEST(Hitting, ReturnTimeIsInverseStationary) {
  const Graph g = lollipop(5, 3);
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    EXPECT_NEAR(expected_return_time(g, v), 1.0 / g.stationary_probability(v), 1e-12);
}

TEST(Hitting, StationaryHittingViaZvv) {
  // Eq. (6): E_π(H_v) = Z_vv / π_v. Compare exact linear-solve value with
  // the series evaluation on a non-bipartite graph.
  const Graph g = lollipop(5, 2);  // clique => aperiodic
  for (Vertex v : {0u, 4u, 6u}) {
    const double direct = exact_stationary_hitting_time(g, v);
    const double via_z = zvv(g, v) / g.stationary_probability(v);
    EXPECT_NEAR(direct, via_z, 1e-6) << "vertex " << v;
  }
}

TEST(Hitting, Lemma6BoundHolds) {
  Rng rng(7);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph g = random_regular_connected(60, 4, rng);
    const auto spec = estimate_spectrum(g);
    for (Vertex v : {0u, 11u, 33u}) {
      const double epi = exact_stationary_hitting_time(g, v);
      EXPECT_LE(epi, lemma6_bound(g, v, spec.gap()) + 1e-6);
    }
  }
}

TEST(Hitting, Corollary9ViaContraction) {
  // E_π(H_S) computed on the contraction Γ(S) obeys 2m/(d(S)(1-λmax(G))).
  Rng rng(9);
  const Graph g = random_regular_connected(80, 4, rng);
  const auto spec = estimate_spectrum(g);
  const std::vector<Vertex> set{2, 40, 41, 77};
  const auto contracted = contract_set(g, set);
  const double epi_gamma =
      exact_stationary_hitting_time(contracted.graph, contracted.contracted);
  EXPECT_LE(epi_gamma, corollary9_bound(g, set, spec.gap()) + 1e-6);
}

TEST(Hitting, UnvisitedProbabilityDecays) {
  // Lemma 13 qualitatively: Pr(S unvisited at t) decays in t, and at
  // t >> E_π(H_S) it is small.
  Rng rng(11);
  const Graph g = random_regular_connected(100, 4, rng);
  const std::vector<Vertex> set{5, 50};
  const double p_short = estimate_unvisited_probability(g, set, 20, 2000, rng);
  const double p_long = estimate_unvisited_probability(g, set, 600, 2000, rng);
  EXPECT_GE(p_short, p_long);
  EXPECT_LT(p_long, 0.05);
}

TEST(Hitting, RejectsBadInput) {
  const Graph g = cycle_graph(5);
  EXPECT_THROW(exact_hitting_times(g, 9), std::invalid_argument);
  GraphBuilder b(4);
  b.add_edge(0, 1);
  EXPECT_THROW(exact_hitting_times(b.build(), 0), std::invalid_argument);  // disconnected
  EXPECT_THROW(lemma6_bound(g, 0, 0.0), std::invalid_argument);
}

TEST(Blanket, VisitAllRTimesOrdering) {
  // T(1) <= T(3) <= T(6), and T(r) grows with r.
  Rng rng(17);
  const Graph g = complete_graph(15);
  const auto t1 = measure_visit_all_r_times(g, 0, 1, rng, 1u << 24);
  const auto t3 = measure_visit_all_r_times(g, 0, 3, rng, 1u << 24);
  const auto t6 = measure_visit_all_r_times(g, 0, 6, rng, 1u << 24);
  EXPECT_LE(t1, t3);
  EXPECT_LE(t3, t6);
}

// Eq. (4)-style consequence: the time for the SRW to visit every vertex
// d(v)=r times is O(C_V) on regular expanders; empirically the ratio
// T(r)/C_V stays modest.
TEST(Blanket, VisitRTimesWithinConstantOfCover) {
  Rng rng(21);
  const Graph g = random_regular_connected(300, 4, rng);
  const auto t_r = measure_visit_all_r_times(g, 0, 4, rng, 1u << 26);
  // Rough C_V estimate from 3 runs.
  double cv = 0;
  for (int i = 0; i < 3; ++i) {
    Rng r2(100 + i);
    cv += static_cast<double>(measure_visit_all_r_times(g, 0, 1, r2, 1u << 26));
  }
  cv /= 3;
  EXPECT_LT(static_cast<double>(t_r), 12.0 * cv);
}

}  // namespace
}  // namespace ewalk
