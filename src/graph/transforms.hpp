// Graph transforms used by the paper: vertex-set contraction (Section 2.2)
// and the evenization repairs of Section 5 (below).
//
//   * contract_set — contract a vertex set S to a single vertex γ,
//     *retaining* loops and parallel edges, so that d(γ) = d(S) and
//     |E(Γ)| = |E(G)|. The paper uses this to reduce "visits to a vertex
//     set" to "visits to a single vertex" (eq. 15) and relies on the facts
//     that contraction does not decrease the eigenvalue gap (eq. 16) or the
//     conductance.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace ewalk {

struct ContractionResult {
  Graph graph;           ///< Γ = Γ(S)
  Vertex contracted;     ///< index of γ in Γ
  /// Mapping old vertex -> new vertex (members of S all map to `contracted`).
  std::vector<Vertex> vertex_map;
};

/// Contracts `set` (non-empty, no duplicates) to one vertex. Edges inside
/// the set become loops at γ; multi-edges are kept. Edge ids are preserved
/// in order (edge e of Γ corresponds to edge e of G).
ContractionResult contract_set(const Graph& g, std::span<const Vertex> set);

// ---- Evenization (Section 5: "Removing the even degree constraint?") ----
//
// The paper's vertex-cover analysis needs even degrees (Observation 10).
// For odd-degree inputs, two natural repairs restore the hypothesis:

/// Doubles every edge (each edge id e of G becomes ids 2e, 2e+1 in the
/// result). All degrees double, hence become even; the E-process parity
/// argument applies to the resulting multigraph.
Graph double_edges(const Graph& g);

/// Pairs up the odd-degree vertices (their count is always even) and
/// duplicates the edges of a short path between the members of each pair —
/// a greedy T-join. Degrees along each duplicated path gain 2 at interior
/// vertices (parity preserved) and 1 at the two odd endpoints (making them
/// even). The result is an even-degree multigraph with m + O(Σ path length)
/// edges. Greedy nearest-neighbour pairing by BFS.
Graph evenize_by_matching(const Graph& g);

}  // namespace ewalk
