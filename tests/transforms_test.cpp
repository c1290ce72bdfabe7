// Tests for graph transforms: contraction (Section 2.2), including the
// spectral facts the paper relies on (eq. 16: contraction does not shrink
// the gap).
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/transforms.hpp"
#include "spectral/conductance.hpp"
#include "spectral/spectrum.hpp"

namespace ewalk {
namespace {

TEST(Contract, PreservesEdgeCountAndDegreeSum) {
  const Graph g = petersen_graph();
  const std::vector<Vertex> set{0, 1, 2};
  const auto res = contract_set(g, set);
  EXPECT_EQ(res.graph.num_edges(), g.num_edges());
  EXPECT_EQ(res.graph.num_vertices(), g.num_vertices() - 2);
  // d(γ) == d(S): edges inside S become loops at γ, each counting 2.
  std::uint64_t d_s = 0;
  for (const Vertex v : set) d_s += g.degree(v);
  EXPECT_EQ(res.graph.degree(res.contracted), d_s);
}

TEST(Contract, InnerEdgesBecomeLoops) {
  // Triangle contracted to one vertex: 3 loops.
  const Graph g = complete_graph(3);
  const std::vector<Vertex> set{0, 1, 2};
  const auto res = contract_set(g, set);
  EXPECT_EQ(res.graph.num_vertices(), 1u);
  EXPECT_EQ(res.graph.num_edges(), 3u);
  EXPECT_TRUE(res.graph.has_self_loops());
  EXPECT_EQ(res.graph.degree(0), 6u);
}

TEST(Contract, VertexMapConsistent) {
  const Graph g = cycle_graph(6);
  const std::vector<Vertex> set{2, 4};
  const auto res = contract_set(g, set);
  EXPECT_EQ(res.vertex_map[2], res.contracted);
  EXPECT_EQ(res.vertex_map[4], res.contracted);
  // All other vertices map to distinct non-γ ids.
  std::vector<bool> seen(res.graph.num_vertices(), false);
  seen[res.contracted] = true;
  for (Vertex v = 0; v < 6; ++v) {
    if (v == 2 || v == 4) continue;
    EXPECT_FALSE(seen[res.vertex_map[v]]);
    seen[res.vertex_map[v]] = true;
  }
}

TEST(Contract, GapDoesNotDecrease) {
  // Eq. (16): 1 - λmax(G) <= 1 - λmax(Γ). Use λ2 of the lazy chain to stay
  // meaningful for near-bipartite contractions.
  Rng rng(5);
  const Graph g = random_regular_connected(120, 4, rng);
  const auto spec_g = estimate_spectrum(g);
  for (const std::vector<Vertex>& set :
       {std::vector<Vertex>{0, 1}, std::vector<Vertex>{3, 17, 44, 90}}) {
    const auto res = contract_set(g, set);
    const auto spec_c = estimate_spectrum(res.graph);
    EXPECT_LE(spec_c.lambda2, spec_g.lambda2 + 1e-6);
  }
}

TEST(Contract, ConductanceDoesNotDecrease) {
  const Graph g = cycle_graph(12);
  const double phi_g = exact_conductance(g);
  const auto res = contract_set(g, std::vector<Vertex>{0, 1, 2, 3});
  const double phi_c = exact_conductance(res.graph);
  EXPECT_GE(phi_c + 1e-12, phi_g);
}

TEST(Contract, RejectsBadInput) {
  const Graph g = cycle_graph(4);
  EXPECT_THROW(contract_set(g, std::vector<Vertex>{}), std::invalid_argument);
  EXPECT_THROW(contract_set(g, std::vector<Vertex>{9}), std::invalid_argument);
  EXPECT_THROW(contract_set(g, std::vector<Vertex>{1, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace ewalk
