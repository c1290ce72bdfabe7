// Undirected multigraph with stable edge identifiers.
//
// This is the substrate every walk process runs on. Design goals, in order:
//   1. O(1) access to the incident (neighbour, edge_id) slots of a vertex —
//      the E-process marks *edges* visited, so adjacency must carry edge ids.
//   2. Immutability after construction: walks never mutate the graph, only
//      their own per-edge/per-vertex state arrays.
//   3. Multigraph semantics matching the paper: parallel edges are distinct
//      edges; a self-loop contributes 2 to the degree and occupies two
//      adjacency slots sharing one edge id (Section 2.2 contracts vertex sets
//      "retaining multiple edges and loops").
//
// Build via GraphBuilder (incremental) or Graph::from_edges (one shot).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/huge_pages.hpp"

namespace ewalk {

using Vertex = std::uint32_t;
using EdgeId = std::uint32_t;

/// One adjacency entry: the neighbour reached and the undirected edge used.
struct Slot {
  Vertex neighbor;
  EdgeId edge;
};

/// An undirected edge's two endpoints (u == v for a self-loop).
struct Endpoints {
  Vertex u;
  Vertex v;
};

/// An edge list in huge-page-backed storage: what generators build and
/// Graph::from_edges adopts without a copy.
using EdgeList = LargeVector<Endpoints>;

class Graph {
 public:
  Graph() = default;

  /// Builds a graph on n vertices from an undirected edge list. Endpoints
  /// must be < n. Parallel edges and self-loops are kept. Copies the edge
  /// list; prefer the EdgeList overload when the caller's list is disposable.
  ///
  /// Row order (both overloads): edge e gets id e, its position in `edges`,
  /// and every vertex's slots ascend by edge id. A self-loop's two slots are
  /// adjacent in its row. BluePartition relies on this to find an edge's
  /// slot at its far endpoint by binary search; graph_test pins it for
  /// every generator family.
  static Graph from_edges(Vertex n, std::span<const Endpoints> edges);

  /// Memory-lean build path: adopts `edges` as the graph's edge array (no
  /// copy, so peak memory during construction is ~1x the edge list instead
  /// of ~2x). The build splits the vertices into contiguous row ranges, one
  /// per part of for_each_part (util/thread_pool.hpp; one part, inline,
  /// below about 2^21 edges). Each part streams the whole edge list in id
  /// order and touches only its own rows: it counts their degrees, then
  /// fills their slots with offsets_ as the cursor array, so the row-order
  /// contract above holds within every part and hence for the graph. The
  /// parallel-edge census is row-local too (each edge counted at its min
  /// endpoint); no scratch grows with n or m. The result does not depend
  /// on the number of parts. Throws std::invalid_argument on an
  /// out-of-range endpoint or when 2*edges.size() overflows the 32-bit slot
  /// index space (the CSR stays valid up to ~4e9 slot endpoints).
  static Graph from_edges(Vertex n, EdgeList&& edges);

  Vertex num_vertices() const noexcept { return n_; }
  EdgeId num_edges() const noexcept { return static_cast<EdgeId>(edges_.size()); }

  /// Degree of v; self-loops count twice.
  std::uint32_t degree(Vertex v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Incident slots of v (size == degree(v)).
  std::span<const Slot> slots(Vertex v) const noexcept {
    return {slots_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// The k-th incident slot of v, 0 <= k < degree(v).
  const Slot& slot(Vertex v, std::uint32_t k) const noexcept {
    return slots_[offsets_[v] + k];
  }

  /// Global index of v's k-th slot within the flat slot array; the E-process
  /// uses this to maintain per-slot bookkeeping without a hash map.
  std::uint32_t slot_index(Vertex v, std::uint32_t k) const noexcept {
    return offsets_[v] + k;
  }
  std::uint32_t slot_offset(Vertex v) const noexcept { return offsets_[v]; }

  Endpoints endpoints(EdgeId e) const noexcept { return edges_[e]; }

  /// The endpoint of e that is not `from` (== from for a self-loop).
  Vertex other_endpoint(EdgeId e, Vertex from) const noexcept {
    const auto [u, v] = edges_[e];
    return u == from ? v : u;
  }

  std::uint32_t min_degree() const noexcept { return min_degree_; }
  std::uint32_t max_degree() const noexcept { return max_degree_; }

  /// True iff every vertex has even degree — the standing assumption of the
  /// paper's vertex cover time analysis (Observation 10 depends on it).
  bool all_degrees_even() const noexcept { return all_even_; }

  /// True iff every vertex has degree r.
  bool is_regular(std::uint32_t r) const noexcept {
    return n_ > 0 && min_degree_ == r && max_degree_ == r;
  }

  bool has_self_loops() const noexcept { return self_loops_ > 0; }
  bool has_parallel_edges() const noexcept { return parallel_edges_ > 0; }
  /// Number of self-loops.
  std::uint64_t self_loop_count() const noexcept { return self_loops_; }
  /// Number of edges that repeat an earlier edge on the same endpoints: k
  /// copies of an edge (loops included) count k - 1.
  std::uint64_t parallel_edge_count() const noexcept { return parallel_edges_; }
  /// Simple == no loops and no parallel edges.
  bool is_simple() const noexcept { return self_loops_ == 0 && parallel_edges_ == 0; }

  /// Stationary probability of v under the SRW: d(v)/2m.
  double stationary_probability(Vertex v) const noexcept {
    return static_cast<double>(degree(v)) / (2.0 * static_cast<double>(num_edges()));
  }

  /// Hints the hardware to pull v's adjacency into cache: the offsets_ entry
  /// and the head of the slot row. The slot-row address depends on the
  /// offsets_ load, so that prefetch issues once the (usually cheap) offset
  /// read resolves — out-of-order cores overlap both with unrelated work.
  /// This is what makes interleaved trial bundles (engine/bundle.hpp) hide
  /// DRAM latency on graphs that no longer fit in LLC: the bundle prefetches
  /// the NEXT position of each walk while stepping the others. No-op effect
  /// on correctness; never faults (prefetch of any address is safe).
  void prefetch_hint(Vertex v) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(offsets_.data() + v);
    __builtin_prefetch(slots_.data() + offsets_[v]);
#else
    (void)v;
#endif
  }

 private:
  Vertex n_ = 0;
  LargeVector<std::uint32_t> offsets_;  // size n_+1
  LargeVector<Slot> slots_;             // size 2m
  EdgeList edges_;                      // size m
  std::uint32_t min_degree_ = 0;
  std::uint32_t max_degree_ = 0;
  std::uint64_t self_loops_ = 0;
  std::uint64_t parallel_edges_ = 0;
  bool all_even_ = true;
};

/// Incremental edge-list assembler.
class GraphBuilder {
 public:
  explicit GraphBuilder(Vertex n) : n_(n) {}

  /// Adds undirected edge {u, v} (u == v allowed) and returns its id.
  EdgeId add_edge(Vertex u, Vertex v);

  Vertex num_vertices() const noexcept { return n_; }
  std::size_t num_edges() const noexcept { return edges_.size(); }

  /// Builds from a copy of the accumulated edge list; the builder stays
  /// usable (tests build the same edge set twice).
  Graph build() const& { return Graph::from_edges(n_, edges_); }

  /// Builds by moving the accumulated edge list into the graph — the
  /// single-copy path every generator uses via `std::move(b).build()`.
  Graph build() && { return Graph::from_edges(n_, std::move(edges_)); }

 private:
  Vertex n_;
  EdgeList edges_;
};

}  // namespace ewalk
