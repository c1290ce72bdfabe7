// Walk processes on evolving graphs.
//
// These are the dynamic-backend instantiations of the transition cores in
// walks/step_core.hpp: the same SRW / E-process step logic the static walks
// run, reading adjacency through a DynamicGraphView instead of the CSR.
// Differences forced by an evolving edge set, and nothing else:
//
//   * Isolated vertices hold instead of throwing. A static walk at an
//     isolated vertex is a caller bug; a dynamic walker is legitimately
//     stranded between edge arrivals (PCF starts with every vertex
//     isolated). A hold is a counted step that consumes no rng draw.
//   * Cover bookkeeping is vertex-only. Edge-cover targets are meaningless
//     against an edge set that grows and shrinks, so the CoverState is
//     constructed with a 1-edge sentinel (never visited): vertex-cover
//     predicates work unchanged, all_edges_covered() stays false forever.
//   * The E-process keeps its own per-edge visited bitmap and per-vertex
//     blue (unvisited incident slot) counts, synced incrementally from the
//     DynamicGraph mutation journal — O(#mutations) amortised, never an
//     O(n + m) rescan. A freshly inserted edge is blue; erasing a blue edge
//     removes it from both endpoints' counts; erasing a visited edge is a
//     no-op for blue state. Blue choice is uniform over blue slots (a
//     self-loop has two slots, hence twice the weight — the same weighting
//     the static uniform rule applies).
//
// Determinism: a dynamic walk trajectory is a pure function of (initial
// graph + mutation sequence, start vertex, rng stream) — no dependence on
// thread identity or scheduling, pinned by tests/dynamic_graph_test.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "util/rng.hpp"
#include "walks/cover_state.hpp"
#include "walks/srw.hpp"

namespace ewalk {

/// Simple random walk on an evolving graph: the srw_transition core over a
/// DynamicGraphView, holding (a counted step, no rng consumed) whenever the
/// current vertex is isolated. Supports the lazy variant like the static
/// SRW.
class DynamicSrw {
 public:
  /// Starts at `start` on the viewed graph; the viewed DynamicGraph must
  /// outlive the walk. `options.lazy` holds w.p. 1/2 exactly as the static
  /// SRW does.
  DynamicSrw(DynamicGraphView view, Vertex start, SrwOptions options = {});

  /// One transition (lazy holds and isolated-vertex holds both count).
  void step(Rng& rng);

  /// Vertex the walk currently occupies.
  Vertex current() const { return current_; }
  /// Transitions made so far (moves + holds).
  std::uint64_t steps() const { return steps_; }
  /// Steps spent holding at an isolated vertex.
  std::uint64_t holds() const { return holds_; }
  /// Vertex-cover bookkeeping (edge side is the 1-edge sentinel).
  const CoverState& cover() const { return cover_; }
  /// The view this walk reads adjacency through.
  DynamicGraphView view() const { return view_; }

 private:
  DynamicGraphView view_;
  SrwOptions options_;
  Vertex current_;
  std::uint64_t steps_ = 0;
  std::uint64_t holds_ = 0;
  CoverState cover_;
};

/// The E-process on an evolving graph: prefer an unvisited ("blue")
/// incident edge, chosen uniformly over blue slots; otherwise take a
/// uniform SRW step; hold if isolated. Blue state is journal-synced (see
/// file comment) so arriving edges become blue and departing blue edges
/// vanish from the counts, in O(1) amortised per mutation.
class DynamicEProcess {
 public:
  /// Starts at `start`; the viewed DynamicGraph must outlive the walk.
  DynamicEProcess(DynamicGraphView view, Vertex start);

  /// One transition: sync with the journal, then blue / red / hold.
  void step(Rng& rng);

  /// Vertex the walk currently occupies.
  Vertex current() const { return current_; }
  /// Transitions made so far (blue + red + holds).
  std::uint64_t steps() const { return steps_; }
  /// Blue (unvisited-edge) transitions made so far.
  std::uint64_t blue_steps() const { return blue_steps_; }
  /// Red (SRW-fallback) transitions made so far.
  std::uint64_t red_steps() const { return red_steps_; }
  /// Steps spent holding at an isolated vertex.
  std::uint64_t holds() const { return holds_; }
  /// Vertex-cover bookkeeping (edge side is the 1-edge sentinel).
  const CoverState& cover() const { return cover_; }
  /// The view this walk reads adjacency through.
  DynamicGraphView view() const { return view_; }

  /// True while edge e (any id ever allocated) has been crossed as a blue
  /// step. Ids never recycle, so the flag survives the edge's erasure.
  bool edge_visited(EdgeId e) const {
    return e < edge_visited_.size() && edge_visited_[e] != 0;
  }

  /// Number of blue (unvisited, alive) incident slots of v after syncing
  /// with the journal.
  std::uint32_t blue_degree(Vertex v) {
    sync();
    return blue_count_[v];
  }

 private:
  friend struct DynamicBlueIndex;

  // Consumes journal entries past synced_epoch_, updating the visited
  // bitmap and blue counts.
  void sync();

  DynamicGraphView view_;
  Vertex current_;
  std::uint64_t steps_ = 0;
  std::uint64_t blue_steps_ = 0;
  std::uint64_t red_steps_ = 0;
  std::uint64_t holds_ = 0;
  CoverState cover_;
  std::vector<std::uint8_t> edge_visited_;  // indexed by edge id
  std::vector<std::uint32_t> blue_count_;   // per vertex, counts slots
  std::uint64_t synced_epoch_ = 0;
};

}  // namespace ewalk
