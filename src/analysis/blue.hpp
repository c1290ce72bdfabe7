// Blue-subgraph analysis (Observations 10/11 and Section 5 of the paper).
//
// During an E-process, unvisited edges are "blue". On even-degree graphs,
// whenever the process is in a red phase the blue edges form edge-induced
// components in which every vertex has even blue degree (Observation 11).
// On odd-degree graphs this fails, and for 3-regular graphs the blue walk
// leaves behind isolated blue *stars* (Section 5) whose census drives the
// Ω(n log n) coupon-collector intuition. This module extracts and
// classifies blue components from walk state.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace ewalk {

struct BlueComponent {
  std::uint32_t num_vertices = 0;
  std::uint32_t num_edges = 0;
  bool all_degrees_even = false;   ///< every member's *blue* degree is even
  bool contains_unvisited_vertex = false;
  bool is_star = false;            ///< one center, rest degree-1 leaves
  Vertex star_center = 0;          ///< valid when is_star
  Vertex representative = 0;       ///< smallest member vertex
};

struct BlueReport {
  std::vector<BlueComponent> components;
  std::uint64_t blue_edges_total = 0;
  std::uint64_t unvisited_vertices_total = 0;
  /// Components that are stars whose center is an unvisited vertex — the
  /// objects counted in the paper's Section 5 argument (|I| ~ n/8 for r=3).
  std::uint64_t isolated_unvisited_stars = 0;
};

/// Extracts the blue (unvisited-edge) components. `edge_visited` has one
/// flag per edge id; `visit_counts` one visit count per vertex, where any
/// nonzero count means visited (CoverState::visit_counts()).
BlueReport analyze_blue(const Graph& g, std::span<const std::uint8_t> edge_visited,
                        std::span<const std::uint32_t> visit_counts);

}  // namespace ewalk
