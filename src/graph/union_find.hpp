// Disjoint-set union over vertex ids, and the edge-list connectivity check.
//
// These are the generation-path connectivity primitives: the random-regular
// generators decide keep/retry from a union-find over their edge lists the
// moment the last edge lands — no Graph is built and no BFS runs for
// rejected attempts (see generators.cpp and the generation↔connectivity
// contract in docs/ARCHITECTURE.md). Steger–Wormald and the PCF schedule
// grow a UnionFind (union by size, path halving) edge by edge;
// edge_list_connected replays a finished list with a concurrent union-find
// of its own, split into parts by for_each_part (util/thread_pool.hpp).
#pragma once

#include <cstdint>
#include <numeric>

#include "graph/graph.hpp"
#include "util/huge_pages.hpp"

namespace ewalk {

/// Disjoint-set forest over {0, ..., n-1} with union by size and path
/// halving: near-O(1) amortised unite/find, 8 bytes per vertex.
class UnionFind {
 public:
  /// All n vertices start as singleton components.
  explicit UnionFind(Vertex n) { reset(n); }

  /// Reinitialises to n singleton components, reusing the backing storage.
  void reset(Vertex n) {
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), Vertex{0});
    size_.assign(n, 1);
    components_ = n;
  }

  /// Root of v's component (path halving keeps trees shallow).
  Vertex find(Vertex v) noexcept {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }

  /// Merges the components of a and b; returns true when they were distinct
  /// (i.e. the component count dropped by one).
  bool unite(Vertex a, Vertex b) noexcept {
    Vertex ra = find(a), rb = find(b);
    if (ra == rb) return false;
    if (size_[ra] < size_[rb]) {
      const Vertex t = ra;
      ra = rb;
      rb = t;
    }
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    --components_;
    return true;
  }

  /// True when a and b are currently in the same component.
  bool connected(Vertex a, Vertex b) noexcept { return find(a) == find(b); }

  /// Number of components remaining (n minus successful unite calls).
  Vertex components() const noexcept { return components_; }

 private:
  LargeVector<Vertex> parent_;
  LargeVector<Vertex> size_;
  Vertex components_ = 0;
};

/// True iff the multigraph (n vertices, `edges`) is connected — a single
/// union-find pass over the edge list. Above the part grain the list splits
/// into parts that link concurrently, each link putting the larger root
/// under the smaller by CAS; the graph is connected iff exactly n - 1 links
/// succeed, which does not depend on how the parts interleave. One part
/// links plainly and stops once one component remains. Equivalent to
/// is_connected(Graph::from_edges(n, edges)) but needs no CSR build and no
/// BFS; the generators use it to decide retries before any Graph exists.
/// n == 0 and n == 1 are connected; isolated vertices (degree 0 with
/// n > 1) make the graph disconnected, exactly as the BFS check reports.
bool edge_list_connected(Vertex n, std::span<const Endpoints> edges);

}  // namespace ewalk
