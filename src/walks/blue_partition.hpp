// The blue-prefix partition: O(1) access to the unvisited ("blue") incident
// edges of every vertex, with O(1) eviction.
//
// order_[slot_offset(v) + p] is the local slot index (0..deg-1) occupying
// position p of v's region; positions < blue_count(v) are blue. Two static
// and dynamic side tables make eviction a true O(1) swap:
//   * edge_slot_[2e], edge_slot_[2e+1] — the local slot index edge e occupies
//     at each endpoint (both at the same vertex for a self-loop), fixed at
//     construction;
//   * pos_of_slot_[slot_offset(v) + k] — the position local slot k currently
//     holds in v's region, maintained through every swap (the inverse
//     permutation of order_ per vertex).
// Marking an edge visited looks up its slot at each endpoint, finds the
// slot's position through pos_of_slot_, and swaps it out of the blue prefix
// — no scan over the prefix, so a blue step costs O(1) regardless of degree
// (the previous implementation scanned O(blue_count) per endpoint, which
// dominated dense graphs). The swap is move-for-move identical to the scan
// it replaced, so walk trajectories are unchanged bit-for-bit; for a
// self-loop the slot nearer the front is evicted first, the order the scan
// found them in.
//
// This is the state every unvisited-edge-preferring process shares —
// EProcess, MultiEProcess, CoalescingEWalk — extracted here so the eviction
// subtleties live in one place. The companion choose_blue_slot helper
// (blue_choice.hpp) implements the index-based rule dispatch with the
// uniform-rule O(1) fast path on top of it; blue_slot(g, v, p) is the O(1)
// accessor index-based rules read candidates through.
#pragma once

#include <cassert>
#include <cstdint>
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
        edge_slot_(2 * static_cast<std::size_t>(g.num_edges()), kUnset),
        blue_count_(g.num_vertices()) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const std::uint32_t off = g.slot_offset(v);
      const std::uint32_t d = g.degree(v);
      blue_count_[v] = d;
      for (std::uint32_t k = 0; k < d; ++k) {
        order_[off + k] = k;
        pos_of_slot_[off + k] = k;
        const EdgeId e = g.slot(v, k).edge;
        // Entry 2e belongs to endpoint u, 2e+1 to endpoint v; a self-loop
        // (u == v) fills them with its two slots in slot order.
        if (v == g.endpoints(e).u && edge_slot_[2 * e] == kUnset) {
          edge_slot_[2 * e] = k;
        } else {
          edge_slot_[2 * e + 1] = k;
        }
      }
    }
  }

  /// Number of blue edges incident with v right now.
  std::uint32_t blue_count(Vertex v) const { return blue_count_[v]; }

  /// The blue slot at position p of v's prefix, 0 <= p < blue_count(v).
  Slot blue_slot(const Graph& g, Vertex v, std::uint32_t p) const {
    return g.slot(v, order_[g.slot_offset(v) + p]);
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

  /// Evicts e from the blue prefix of each endpoint with an O(1) swap. The
  /// edge occurs exactly once in each endpoint's slots — twice at the same
  /// vertex for a self-loop, which occupies two slots. Precondition: e is
  /// blue.
  void mark_edge_visited(const Graph& g, EdgeId e) {
    const auto [u, v] = g.endpoints(e);
    std::uint32_t ku = edge_slot_[2 * e];
    std::uint32_t kv = edge_slot_[2 * e + 1];
    if (u == v) {
      // Self-loop: evict the slot currently nearer the front first — the
      // order a front-to-back prefix scan finds them — so the resulting
      // permutation is identical to the scan-based implementation.
      const std::uint32_t off = g.slot_offset(u);
      if (pos_of_slot_[off + kv] < pos_of_slot_[off + ku]) std::swap(ku, kv);
    }
    evict_slot(g, u, ku);
    evict_slot(g, v, kv);
  }

 private:
  static constexpr std::uint32_t kUnset = 0xFFFFFFFFu;

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
  LargeVector<std::uint32_t> edge_slot_;
  LargeVector<std::uint32_t> blue_count_;
};

}  // namespace ewalk
