#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace ewalk {

Graph Graph::from_edges(Vertex n, std::span<const Endpoints> edges) {
  return from_edges(n, EdgeList(edges.begin(), edges.end()));
}

Graph Graph::from_edges(Vertex n, EdgeList&& edges) {
  // Slot indices (offsets_, slot_index) are 32-bit: 2m must fit. Edge ids are
  // 32-bit too, which the same bound covers with room to spare.
  if (edges.size() > std::numeric_limits<std::uint32_t>::max() / 2)
    throw std::invalid_argument(
        "Graph::from_edges: edge count overflows 32-bit slot indices (n=" +
        std::to_string(n) + ", m=" + std::to_string(edges.size()) +
        "; 2m must fit in uint32)");

  Graph g;
  g.n_ = n;
  g.edges_ = std::move(edges);
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);

  // Pass 1: validate endpoints, count degrees into offsets_[v + 1], and
  // count self-loops — all in the one sweep over the adopted edge list.
  for (const auto& [u, v] : g.edges_) {
    if (u >= n || v >= n) throw std::invalid_argument("Graph::from_edges: endpoint out of range");
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
    if (u == v) ++g.self_loops_;
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) g.offsets_[i] += g.offsets_[i - 1];

  // Pass 2: bucket fill using offsets_ itself as the cursor array (after the
  // fill, offsets_[v] holds the END of v's bucket, i.e. the start of v+1's,
  // so one backward shift restores the CSR offsets — no cursor vector).
  // A self-loop writes its two slots back-to-back; the census below and
  // other_endpoint rely on that adjacency.
  g.slots_.resize(2 * g.edges_.size());
  for (EdgeId e = 0; e < g.edges_.size(); ++e) {
    const auto [u, v] = g.edges_[e];
    g.slots_[g.offsets_[u]++] = Slot{v, e};
    g.slots_[g.offsets_[v]++] = Slot{u, e};
  }
  for (Vertex v = n; v > 0; --v) g.offsets_[v] = g.offsets_[v - 1];
  g.offsets_[0] = 0;

  if (n > 0) {
    g.min_degree_ = g.degree(0);
    g.max_degree_ = g.degree(0);
    for (Vertex v = 0; v < n; ++v) {
      const std::uint32_t d = g.degree(v);
      g.min_degree_ = std::min(g.min_degree_, d);
      g.max_degree_ = std::max(g.max_degree_, d);
      if (d % 2 != 0) g.all_even_ = false;
    }
  }

  // Parallel-edge census directly on the adjacency: for each vertex u, scan
  // its slots and count repeated neighbours v >= u with a stamp array (value
  // u+1 marks "v already seen in u's bucket"), so k parallel copies of an
  // edge contribute k-1 — the same count the old sorted-key census produced.
  // Each undirected edge is counted from its min endpoint only; a self-loop's
  // twin slot (adjacent by construction) is skipped so k self-loops at u
  // likewise contribute k-1. Scratch is 4 bytes per VERTEX (transient)
  // instead of 8 bytes per EDGE plus an O(m log m) sort.
  if (!g.edges_.empty()) {
    LargeVector<Vertex> stamp(n, 0);
    for (Vertex u = 0; u < n; ++u) {
      for (std::uint32_t i = g.offsets_[u]; i < g.offsets_[u + 1]; ++i) {
        const Vertex v = g.slots_[i].neighbor;
        if (v < u) continue;
        if (v == u) ++i;  // skip the self-loop's twin slot
        if (stamp[v] == u + 1)
          ++g.parallel_edges_;
        else
          stamp[v] = u + 1;
      }
    }
  }
  return g;
}

EdgeId GraphBuilder::add_edge(Vertex u, Vertex v) {
  if (u >= n_ || v >= n_) throw std::invalid_argument("GraphBuilder::add_edge: endpoint out of range");
  edges_.push_back(Endpoints{u, v});
  return static_cast<EdgeId>(edges_.size() - 1);
}

}  // namespace ewalk
