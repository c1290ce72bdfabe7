// Shared cover-progress bookkeeping for all walk processes.
//
// Tracks which edges have been visited, how many times each vertex has been
// visited (needed by RWC(d), the visit-all-r-times measurement and
// adversarial E-process rules; a vertex is visited once its count is
// nonzero), and the step at which vertex/edge cover completed.
#pragma once

#include <cstdint>
#include <limits>
#include <span>

#include "graph/graph.hpp"
#include "util/huge_pages.hpp"

namespace ewalk {

inline constexpr std::uint64_t kNotCovered = std::numeric_limits<std::uint64_t>::max();

class CoverState {
 public:
  CoverState(Vertex n, EdgeId m);

  /// Records a visit to v at time `step`. Idempotent w.r.t. coverage. The
  /// count saturates at UINT32_MAX, so a visited vertex never reads as
  /// unvisited.
  void visit_vertex(Vertex v, std::uint64_t step) {
    const std::uint32_t count = visit_count_[v];
    visit_count_[v] = count + (count != std::numeric_limits<std::uint32_t>::max());
    if (count == 0) {
      ++vertices_covered_;
      if (vertices_covered_ == n_) vertex_cover_step_ = step;
    }
  }

  /// Records a traversal of edge e at time `step`.
  void visit_edge(EdgeId e, std::uint64_t step) {
    if (!edge_visited_[e]) {
      edge_visited_[e] = 1;
      ++edges_covered_;
      if (edges_covered_ == m_) edge_cover_step_ = step;
    }
  }

  bool vertex_visited(Vertex v) const { return visit_count_[v] != 0; }
  bool edge_visited(EdgeId e) const { return edge_visited_[e] != 0; }
  std::uint32_t visit_count(Vertex v) const { return visit_count_[v]; }

  Vertex vertices_covered() const { return vertices_covered_; }
  EdgeId edges_covered() const { return edges_covered_; }
  bool all_vertices_covered() const { return vertices_covered_ == n_; }
  bool all_edges_covered() const { return edges_covered_ == m_; }

  /// Step at which the last vertex (edge) was first visited; kNotCovered
  /// until cover completes.
  std::uint64_t vertex_cover_step() const { return vertex_cover_step_; }
  std::uint64_t edge_cover_step() const { return edge_cover_step_; }

  /// Minimum visit count over all vertices (the visit-all-r-times target).
  std::uint32_t min_visit_count() const;

  std::span<const std::uint32_t> visit_counts() const { return visit_count_; }
  std::span<const std::uint8_t> edge_visited_flags() const { return edge_visited_; }

 private:
  Vertex n_;
  EdgeId m_;
  LargeVector<std::uint8_t> edge_visited_;
  LargeVector<std::uint32_t> visit_count_;
  Vertex vertices_covered_ = 0;
  EdgeId edges_covered_ = 0;
  std::uint64_t vertex_cover_step_ = kNotCovered;
  std::uint64_t edge_cover_step_ = kNotCovered;
};

}  // namespace ewalk
