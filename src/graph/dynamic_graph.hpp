// Dynamic adjacency: walks on edge sets that change mid-run.
//
// Every process in the engine assumes a frozen CSR (`Graph`), but production
// graphs — social overlays, p2p meshes — mutate under the walker. This layer
// provides the engine-level substrate for that workload class:
//
//   * DynamicGraph      — per-vertex edge-list adjacency with O(1) amortised
//                         insert and O(1) delete (swap-with-last, position
//                         side table), stable monotone edge ids (never
//                         reused), a monotone epoch counter that advances by
//                         exactly one per mutation, and a mutation journal
//                         walks consume incrementally to keep their own
//                         per-edge state in sync without O(n + m) rescans.
//   * DynamicGraphView  — the read surface the walk layer steps through. It
//                         has the same degree/slot shape as `Graph`, so the
//                         templated step cores (walks/step_core.hpp) drive
//                         either backend from one loop instead of a fork.
//   * freeze()          — snapshots the surviving edge list into the
//                         existing immutable CSR `Graph`, so everything
//                         built for the static path (spectral analysis,
//                         exact cover, golden-hash tests) applies to any
//                         instant of an evolving run. The static path is
//                         untouched: a frozen snapshot IS a `Graph`.
//
// Epoch contract: epoch() == number of mutations ever applied == length of
// the journal. A reader that remembers the epoch it last synced at can
// catch up by consuming exactly journal()[last..epoch()); epoch() never
// decreases and freeze() does not advance it.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace ewalk {

/// Kind of one recorded mutation of a DynamicGraph.
enum class MutationKind : std::uint8_t {
  kInsert,  ///< edge was inserted (its id is freshly allocated)
  kErase    ///< edge was erased (its id is retired, never reused)
};

/// One journal entry: what happened, to which edge id, between which
/// endpoints. The journal is the incremental-sync surface walks use to keep
/// per-edge state current in O(#mutations) instead of O(n + m) rescans.
struct GraphMutation {
  MutationKind kind;   ///< insert or erase
  EdgeId edge;         ///< the edge id the mutation applies to
  Endpoints endpoints; ///< the edge's endpoints (u == v for a self-loop)
};

/// Mutable multigraph with per-vertex edge lists: O(1) amortised insert,
/// O(1) erase, monotone epoch counter, and an O(n + m) freeze() snapshot to
/// the immutable CSR `Graph`. Multigraph semantics match `Graph`: parallel
/// edges are distinct ids, a self-loop occupies two adjacency slots of its
/// vertex and contributes 2 to the degree. Edge ids are allocated
/// monotonically and never reused, so per-edge side arrays indexed by id
/// stay valid across arbitrary churn (grow them to edge_capacity()).
class DynamicGraph {
 public:
  /// An empty dynamic graph on n vertices (the vertex set is fixed).
  explicit DynamicGraph(Vertex n);

  /// Seeds a dynamic graph with every edge of `g`, inserted in edge-id
  /// order, as the epoch-0 baseline: the journal starts empty and epoch()
  /// starts at 0, so readers initialise from the adjacency directly.
  static DynamicGraph from_graph(const Graph& g);

  /// Number of vertices (fixed at construction).
  Vertex num_vertices() const noexcept { return n_; }
  /// Number of currently alive edges.
  EdgeId num_edges() const noexcept { return alive_edges_; }
  /// One past the largest edge id ever allocated. Size per-edge side arrays
  /// to this; ids of erased edges are retired, never reused.
  EdgeId edge_capacity() const noexcept {
    return static_cast<EdgeId>(edges_.size());
  }

  /// Monotone mutation counter: advances by exactly one per insert/erase
  /// (== journal().size()); freeze() and reads never advance it.
  std::uint64_t epoch() const noexcept { return journal_.size(); }

  /// Every mutation since construction, in application order; entry i was
  /// applied when epoch() went from i to i + 1. Readers sync incrementally
  /// by consuming the suffix past their last-seen epoch.
  const std::vector<GraphMutation>& journal() const noexcept { return journal_; }

  /// Inserts undirected edge {u, v} (u == v allowed) and returns its fresh
  /// id. O(1) amortised; advances the epoch by one.
  EdgeId insert_edge(Vertex u, Vertex v);

  /// Erases alive edge e from both endpoints' lists with swap-with-last
  /// (O(1); slot order of the affected vertices is perturbed, which the
  /// view's degree/slot contract permits). Advances the epoch by one.
  void erase_edge(EdgeId e);

  /// True while e has been inserted and not yet erased.
  bool edge_alive(EdgeId e) const noexcept { return edges_[e].alive; }

  /// Endpoints of e (valid for retired ids too — the journal refers back).
  Endpoints endpoints(EdgeId e) const noexcept { return edges_[e].endpoints; }

  /// Degree of v right now; self-loops count twice.
  std::uint32_t degree(Vertex v) const noexcept {
    return static_cast<std::uint32_t>(adjacency_[v].size());
  }

  /// The k-th incident slot of v, 0 <= k < degree(v). Slot order is
  /// unspecified and perturbed by erasures — readers must not assume the
  /// CSR's construction order.
  const Slot& slot(Vertex v, std::uint32_t k) const noexcept {
    return adjacency_[v][k];
  }

  /// The surviving edges in ascending id order — exactly the edge list
  /// freeze() snapshots.
  EdgeList surviving_edges() const;

  /// Snapshots the surviving edge list into an immutable CSR `Graph`
  /// (ids compacted to 0..num_edges()-1 in ascending surviving-id order —
  /// the same Graph that Graph::from_edges(n, surviving_edges()) builds).
  /// O(n + m); does not mutate and does not advance the epoch.
  Graph freeze() const;

 private:
  // Where edge e currently sits in its endpoints' adjacency lists, so
  // erase_edge can swap it out in O(1). For a self-loop both positions
  // index adjacency_[u]: pos_u is the slot pushed first.
  struct EdgeRecord {
    Endpoints endpoints;
    std::uint32_t pos_u = 0;
    std::uint32_t pos_v = 0;
    bool alive = false;
  };

  // Removes adjacency_[v][pos] by swapping the last slot in, patching the
  // moved edge's position record.
  void remove_slot(Vertex v, std::uint32_t pos);

  Vertex n_ = 0;
  std::vector<std::vector<Slot>> adjacency_;  // size n_
  std::vector<EdgeRecord> edges_;             // size edge_capacity()
  std::vector<GraphMutation> journal_;
  EdgeId alive_edges_ = 0;
};

/// The read surface the walk layer steps through: a non-owning view of a
/// DynamicGraph with the same degree/slot shape as `Graph`, plus the epoch
/// and journal accessors incremental readers sync from. Copyable and cheap;
/// the viewed graph must outlive every view.
class DynamicGraphView {
 public:
  /// Views `g`; no ownership is taken.
  explicit DynamicGraphView(const DynamicGraph& g) noexcept : g_(&g) {}

  /// Number of vertices of the viewed graph.
  Vertex num_vertices() const noexcept { return g_->num_vertices(); }
  /// Number of currently alive edges.
  EdgeId num_edges() const noexcept { return g_->num_edges(); }
  /// One past the largest edge id ever allocated (see DynamicGraph).
  EdgeId edge_capacity() const noexcept { return g_->edge_capacity(); }
  /// Degree of v right now; self-loops count twice.
  std::uint32_t degree(Vertex v) const noexcept { return g_->degree(v); }
  /// The k-th incident slot of v, 0 <= k < degree(v).
  const Slot& slot(Vertex v, std::uint32_t k) const noexcept {
    return g_->slot(v, k);
  }
  /// Endpoints of edge e (valid for retired ids too).
  Endpoints endpoints(EdgeId e) const noexcept { return g_->endpoints(e); }
  /// The viewed graph's monotone mutation counter.
  std::uint64_t epoch() const noexcept { return g_->epoch(); }
  /// The viewed graph's mutation journal (see DynamicGraph::journal).
  const std::vector<GraphMutation>& journal() const noexcept {
    return g_->journal();
  }
  /// The viewed graph itself, for freeze()-style snapshot callers.
  const DynamicGraph& graph() const noexcept { return *g_; }

 private:
  const DynamicGraph* g_;
};

}  // namespace ewalk
