// Tests for structural analysis: girth, ℓ-goodness, and blue component
// extraction.
#include <gtest/gtest.h>

#include "analysis/blue.hpp"
#include "analysis/ell_good.hpp"
#include "analysis/girth.hpp"
#include "graph/generators.hpp"

namespace ewalk {
namespace {

TEST(Girth, KnownValues) {
  EXPECT_EQ(girth(cycle_graph(9)), 9u);
  EXPECT_EQ(girth(complete_graph(5)), 3u);
  EXPECT_EQ(girth(petersen_graph()), 5u);
  EXPECT_EQ(girth(hypercube(4)), 4u);
  EXPECT_EQ(girth(complete_bipartite(3, 3)), 4u);
  EXPECT_EQ(girth(torus_2d(5, 5)), 4u);
}

TEST(Girth, AcyclicIsInfinite) {
  EXPECT_EQ(girth(path_graph(6)), kInfiniteGirth);
  EXPECT_EQ(girth(binary_tree(4)), kInfiniteGirth);
  EXPECT_EQ(girth(star_graph(5)), kInfiniteGirth);
}

TEST(Girth, MultigraphAndLoops) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 1);  // parallel pair => girth 2
  b.add_edge(1, 2);
  EXPECT_EQ(girth(b.build()), 2u);

  GraphBuilder c(2);
  c.add_edge(0, 0);  // loop => girth 1
  c.add_edge(0, 1);
  EXPECT_EQ(girth(c.build()), 1u);
}

TEST(Girth, ThroughEdge) {
  const Graph g = petersen_graph();
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    EXPECT_EQ(shortest_cycle_through_edge(g, e), 5u);  // edge-transitive, girth 5
}

TEST(Girth, ThroughEdgeBridge) {
  const Graph g = lollipop(4, 3);
  // Path edges are bridges: no cycle through them.
  const EdgeId last = g.num_edges() - 1;
  EXPECT_EQ(shortest_cycle_through_edge(g, last), kInfiniteGirth);
}

TEST(Girth, ThroughVertex) {
  // Two triangles sharing vertex 0, plus a pendant at 5.
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(0, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 0);
  b.add_edge(4, 5);
  const Graph g = b.build();
  EXPECT_EQ(shortest_cycle_through_vertex(g, 0), 3u);
  EXPECT_EQ(shortest_cycle_through_vertex(g, 1), 3u);
  EXPECT_EQ(shortest_cycle_through_vertex(g, 5), kInfiniteGirth);
}

// ---- ℓ-goodness -----------------------------------------------------------

TEST(EllGood, CycleIsExactlyN) {
  // On C_n every vertex's only even subgraph containing its edges is the
  // whole cycle.
  const Graph g = cycle_graph(6);
  for (Vertex v = 0; v < 6; ++v) {
    const auto ell = min_even_subgraph_order(g, v);
    ASSERT_TRUE(ell.has_value());
    EXPECT_EQ(*ell, 6u);
  }
}

TEST(EllGood, FigureEightSharedVertex) {
  // Two triangles sharing vertex 0: at vertex 0 (degree 4) the minimal even
  // subgraph containing all four edges is both triangles => 5 vertices.
  // At a degree-2 vertex it is its own triangle => 3.
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(0, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 0);
  const Graph g = b.build();
  EXPECT_EQ(min_even_subgraph_order(g, 0).value(), 5u);
  EXPECT_EQ(min_even_subgraph_order(g, 1).value(), 3u);
}

TEST(EllGood, OddDegreeVertexHasNoEvenSubgraph) {
  // K_4 has degree 3: no even-degree subgraph can contain all 3 edges at v.
  const Graph g = complete_graph(4);
  EXPECT_FALSE(min_even_subgraph_order(g, 0).has_value());
}

TEST(EllGood, TreeVertexHasNoEvenSubgraph) {
  const Graph g = path_graph(4);
  EXPECT_FALSE(min_even_subgraph_order(g, 1).has_value());
}

TEST(EllGood, GirthLowerBoundIsValid) {
  // For K_5 (even degree 4): minimal even subgraph at v is two triangles
  // sharing v (5 vertices) or a 4-cycle+... — compare exact with bound.
  const Graph g = complete_graph(5);
  for (Vertex v = 0; v < 5; ++v) {
    const auto exact = min_even_subgraph_order(g, v);
    ASSERT_TRUE(exact.has_value());
    EXPECT_GE(*exact, ell_lower_bound_girth(g, v));
  }
}

TEST(EllGood, K5ExactIsFive) {
  // K_5 (degree 4, even): the minimal even subgraph containing all 4 edges
  // at v is two triangles sharing v - 5 vertices.
  const Graph g = complete_graph(5);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(min_even_subgraph_order(g, v).value(), 5u);
}

TEST(EllGood, DenseSubgraphDetection) {
  // A triangle is 3 vertices / 3 edges: not dense (e <= s). K_4 minus
  // nothing: 4 vertices 6 edges: dense.
  EXPECT_FALSE(has_dense_subgraph(cycle_graph(8), 8));
  EXPECT_FALSE(has_dense_subgraph(binary_tree(4), 10));
  EXPECT_TRUE(has_dense_subgraph(complete_graph(4), 4));
  // Theta graph (two vertices joined by 3 paths of length 2): 5 vertices,
  // 6 edges -> dense at size 5.
  GraphBuilder b(5);
  b.add_edge(0, 2);
  b.add_edge(2, 1);
  b.add_edge(0, 3);
  b.add_edge(3, 1);
  b.add_edge(0, 4);
  b.add_edge(4, 1);
  EXPECT_TRUE(has_dense_subgraph(b.build(), 5));
  EXPECT_FALSE(has_dense_subgraph(b.build(), 4));
}

TEST(EllGood, CertifiedEllOnCycle) {
  // C_n: certified ℓ should equal n (girth bound is exact for degree 2).
  EXPECT_EQ(certified_ell_good(cycle_graph(9), 4), 9u);
}

TEST(EllGood, CertifiedEllOnTorusFallsBackToGirth) {
  // Torus: two unit squares sharing an edge form 6 vertices with 7 induced
  // edges, so the density certificate at size 6 fails and the certified
  // bound falls back to the girth bound of 4.
  const Graph g = torus_2d(6, 6);
  EXPECT_TRUE(has_dense_subgraph(g, 6));
  EXPECT_EQ(certified_ell_good(g, 6), 4u);
}

TEST(EllGood, CertifiedEllOnHypercube) {
  // Q_4: girth 4, degree 4, and no connected set of <= 5 vertices induces
  // more than |set| edges (two 4-cycles share an edge only via 6 vertices),
  // so the density certificate upgrades every vertex to 5 + 1 = 6.
  const Graph g = hypercube(4);
  EXPECT_FALSE(has_dense_subgraph(g, 5));
  EXPECT_EQ(certified_ell_good(g, 5), 6u);
}

// ---- Blue components --------------------------------------------------------

TEST(Blue, FullBlueGraphIsOneComponent) {
  const Graph g = cycle_graph(5);
  std::vector<std::uint8_t> edge_visited(g.num_edges(), 0);
  std::vector<std::uint32_t> visit_counts(g.num_vertices(), 0);
  const auto report = analyze_blue(g, edge_visited, visit_counts);
  ASSERT_EQ(report.components.size(), 1u);
  EXPECT_EQ(report.components[0].num_vertices, 5u);
  EXPECT_EQ(report.components[0].num_edges, 5u);
  EXPECT_TRUE(report.components[0].all_degrees_even);
  EXPECT_EQ(report.unvisited_vertices_total, 5u);
}

TEST(Blue, AllVisitedIsEmpty) {
  const Graph g = cycle_graph(5);
  std::vector<std::uint8_t> edge_visited(g.num_edges(), 1);
  std::vector<std::uint32_t> visit_counts(g.num_vertices(), 1);
  const auto report = analyze_blue(g, edge_visited, visit_counts);
  EXPECT_TRUE(report.components.empty());
  EXPECT_EQ(report.blue_edges_total, 0u);
}

TEST(Blue, StarDetection) {
  // Star with unvisited center, visited leaves => isolated unvisited star.
  const Graph g = star_graph(4);  // center 0, leaves 1..3
  std::vector<std::uint8_t> edge_visited(g.num_edges(), 0);
  std::vector<std::uint32_t> visit_counts(g.num_vertices(), 1);
  visit_counts[0] = 0;
  const auto report = analyze_blue(g, edge_visited, visit_counts);
  ASSERT_EQ(report.components.size(), 1u);
  EXPECT_TRUE(report.components[0].is_star);
  EXPECT_EQ(report.components[0].star_center, 0u);
  EXPECT_EQ(report.isolated_unvisited_stars, 1u);
  EXPECT_FALSE(report.components[0].all_degrees_even);
}

TEST(Blue, TwoComponents) {
  // C_6 with edges {2,3} and {5,0} visited leaves two blue paths.
  const Graph g = cycle_graph(6);
  std::vector<std::uint8_t> edge_visited(g.num_edges(), 0);
  std::vector<std::uint32_t> visit_counts(g.num_vertices(), 1);
  // cycle_graph adds edges (i, i+1 mod n) in order, so edge i = {i, i+1}.
  edge_visited[2] = 1;
  edge_visited[5] = 1;
  const auto report = analyze_blue(g, edge_visited, visit_counts);
  EXPECT_EQ(report.components.size(), 2u);
  EXPECT_EQ(report.blue_edges_total, 4u);
  for (const auto& c : report.components) EXPECT_FALSE(c.all_degrees_even);
}

TEST(Blue, CountAboveOneReadsVisited) {
  // Only a zero count is unvisited: a center seen 7 times and a leaf seen
  // UINT32_MAX times both count as visited.
  const Graph g = star_graph(4);  // center 0, leaves 1..3
  std::vector<std::uint8_t> edge_visited(g.num_edges(), 0);
  std::vector<std::uint32_t> visit_counts = {7, 0, 0xFFFFFFFFu, 2};
  const auto report = analyze_blue(g, edge_visited, visit_counts);
  ASSERT_EQ(report.components.size(), 1u);
  EXPECT_TRUE(report.components[0].is_star);
  EXPECT_TRUE(report.components[0].contains_unvisited_vertex);
  EXPECT_EQ(report.unvisited_vertices_total, 1u);
  EXPECT_EQ(report.isolated_unvisited_stars, 0u);
}

TEST(Blue, SizeMismatchThrows) {
  const Graph g = cycle_graph(4);
  std::vector<std::uint8_t> bad_edges(2, 0), edges(4, 0);
  std::vector<std::uint32_t> counts(4, 0), bad_counts(3, 0);
  EXPECT_THROW(analyze_blue(g, bad_edges, counts), std::invalid_argument);
  EXPECT_THROW(analyze_blue(g, edges, bad_counts), std::invalid_argument);
}

}  // namespace
}  // namespace ewalk
