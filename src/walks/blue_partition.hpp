// The blue-prefix partition: O(1) access to the unvisited ("blue") incident
// edges of every vertex, with O(1) eviction at the walker's end of an edge.
//
// order_[slot_offset(v) + p] is the local slot index (0..deg-1) occupying
// position p of v's region; positions < blue_count(v) are blue.
// pos_of_slot_[slot_offset(v) + k] is the position local slot k currently
// holds in v's region, maintained through every swap (the inverse
// permutation of order_ per vertex), so evicting a known local slot is a
// true O(1) swap with the last blue position.
//
// A blue step knows its own end of the edge: the walker at v chose local
// slot k = order_[slot_offset(v) + p]. mark_slot_visited(g, v, k) evicts k
// at v and finds the edge's slot at the far endpoint u by binary search
// over u's CSR row, which Graph::from_edges fills in ascending edge id
// (graph.hpp). That row is the one the walk reads on its next step anyway,
// so the search costs O(log deg(u)) reads of lines the step is about to
// pull in — no per-trial edge->slot table. A self-loop's twin is the
// adjacent slot with the same edge id. The swaps are move-for-move
// identical to the prefix scan this partition replaced, so walk
// trajectories are unchanged bit-for-bit; for a self-loop the slot nearer
// the front is evicted first, the order the scan found them in.
//
// This is the state every unvisited-edge-preferring process shares —
// EProcess, MultiEProcess, CoalescingEWalk — extracted here so the eviction
// subtleties live in one place. The companion choose_blue_position helper
// (blue_choice.hpp) implements the index-based rule dispatch with the
// uniform-rule O(1) fast path on top of it; blue_slot(g, v, p) is the O(1)
// accessor index-based rules read candidates through.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>

#include "graph/graph.hpp"
#include "util/huge_pages.hpp"

namespace ewalk {

class BluePartition {
 public:
  /// All edges start blue.
  explicit BluePartition(const Graph& g)
      : order_(2 * static_cast<std::size_t>(g.num_edges())),
        pos_of_slot_(2 * static_cast<std::size_t>(g.num_edges())),
        blue_count_(g.num_vertices()) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const std::uint32_t off = g.slot_offset(v);
      const std::uint32_t d = g.degree(v);
      blue_count_[v] = d;
      for (std::uint32_t k = 0; k < d; ++k) {
        order_[off + k] = k;
        pos_of_slot_[off + k] = k;
      }
    }
  }

  /// Number of blue edges incident with v right now.
  std::uint32_t blue_count(Vertex v) const { return blue_count_[v]; }

  /// The local slot index at position p of v's prefix, 0 <= p < blue_count(v).
  std::uint32_t local_slot(const Graph& g, Vertex v, std::uint32_t p) const {
    return order_[g.slot_offset(v) + p];
  }

  /// The blue slot at position p of v's prefix, 0 <= p < blue_count(v).
  Slot blue_slot(const Graph& g, Vertex v, std::uint32_t p) const {
    return g.slot(v, local_slot(g, v, p));
  }

  /// Hints the hardware to pull v's partition state into cache: the blue
  /// count and the head of v's order_ region — the two lines a blue step at
  /// v touches first. Companion to Graph::prefetch_hint for interleaved
  /// trial bundles (engine/bundle.hpp); safe for any vertex, no side effects.
  void prefetch_hint(const Graph& g, Vertex v) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(blue_count_.data() + v);
    __builtin_prefetch(order_.data() + g.slot_offset(v));
#else
    (void)g;
    (void)v;
#endif
  }

  /// Marks the edge in v's local slot k visited: evicts it from the blue
  /// prefix of both endpoints with O(1) swaps and returns the slot. The far
  /// endpoint's slot is found by edge id in its CSR row (ascending by
  /// construction); a self-loop's two slots are adjacent in v's row.
  /// Precondition: the edge is blue.
  Slot mark_slot_visited(const Graph& g, Vertex v, std::uint32_t k) {
    const Slot s = g.slot(v, k);
    const Vertex u = s.neighbor;
    const std::span<const Slot> row = g.slots(u);
    if (u == v) {
      // Self-loop: evict the slot currently nearer the front first — the
      // order a front-to-back prefix scan finds them — so the resulting
      // permutation is identical to the scan-based implementation.
      std::uint32_t first = k;
      std::uint32_t second = k > 0 && row[k - 1].edge == s.edge ? k - 1 : k + 1;
      const std::uint32_t off = g.slot_offset(v);
      if (pos_of_slot_[off + second] < pos_of_slot_[off + first])
        std::swap(first, second);
      evict_slot(g, v, first);
      evict_slot(g, v, second);
      return s;
    }
    evict_slot(g, v, k);
    const auto at_u = std::lower_bound(
        row.begin(), row.end(), s.edge,
        [](const Slot& a, EdgeId e) { return a.edge < e; });
    assert(at_u != row.end() && at_u->edge == s.edge);
    evict_slot(g, u, static_cast<std::uint32_t>(at_u - row.begin()));
    return s;
  }

 private:
  /// Swaps local slot k out of owner's blue prefix. Precondition: blue.
  void evict_slot(const Graph& g, Vertex owner, std::uint32_t k) {
    const std::uint32_t off = g.slot_offset(owner);
    const std::uint32_t p = pos_of_slot_[off + k];
    assert(blue_count_[owner] > 0 && p < blue_count_[owner]);
    const std::uint32_t last = blue_count_[owner] - 1;
    const std::uint32_t moved = order_[off + last];
    order_[off + p] = moved;
    order_[off + last] = k;
    pos_of_slot_[off + moved] = p;
    pos_of_slot_[off + k] = last;
    blue_count_[owner] = last;
  }

  LargeVector<std::uint32_t> order_;
  LargeVector<std::uint32_t> pos_of_slot_;
  LargeVector<std::uint32_t> blue_count_;
};

}  // namespace ewalk
