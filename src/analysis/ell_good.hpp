// ℓ-goodness (Section 1 / 4.1 of the paper).
//
// A vertex v is ℓ-good if every even-degree edge-induced subgraph that
// contains all edges incident with v has at least ℓ vertices; G is ℓ-good
// if every vertex is. ℓ-goodness drives Theorem 1's cover-time bound.
//
// Exact computation is a minimisation over the cycle space, so we provide:
//   * min_even_subgraph_order — exact, exponential in m - d(v); for tiny
//     graphs (tests pin known values);
//   * girth-based lower bound — any qualifying subgraph contains a cycle
//     through v, so ℓ(v) >= shortest cycle through v (cheap, any size);
//   * density-based bound following the paper's own Section 4.1 argument:
//     if no connected subgraph on s < L vertices induces more than s edges
//     (property (P2) with a = 0) then every vertex of degree >= 4 is L-good.
//     We provide an exact bounded-size checker (rooted enumeration à la
//     Lemma 14).
#pragma once

#include <cstdint>
#include <optional>

#include "graph/graph.hpp"

namespace ewalk {

/// Exact: minimum vertex count over even-degree edge-induced subgraphs
/// containing all edges at v; nullopt if none exists (e.g. bridge at v).
/// Exponential search over non-incident edge subsets — requires
/// m - degree(v) <= 30.
std::optional<std::uint32_t> min_even_subgraph_order(const Graph& g, Vertex v);

/// Cheap certified lower bound on ℓ(v): the shortest cycle through v
/// (kInfiniteGirth when v lies on no cycle, meaning no qualifying subgraph
/// exists at all and v is vacuously ℓ-good for every ℓ).
std::uint32_t ell_lower_bound_girth(const Graph& g, Vertex v);

/// Exact check of the density property: does some connected subgraph with
/// s <= max_size vertices induce more than s edges? Rooted subgraph
/// enumeration; exponential in max_size, intended for max_size <= ~8 on
/// bounded-degree graphs.
bool has_dense_subgraph(const Graph& g, std::uint32_t max_size);

/// Combined certified lower bound on the graph's ℓ: min over vertices of
/// ell_lower_bound_girth, with degree >= 4 vertices upgraded to
/// `density_size + 1` when has_dense_subgraph(g, density_size) is false.
/// (Degree-2 vertices lie on a single cycle, for which the girth bound is
/// already exact.)
std::uint32_t certified_ell_good(const Graph& g, std::uint32_t density_size);

}  // namespace ewalk
