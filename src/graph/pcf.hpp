// Percolation with constant freezing (PCF) on a base multigraph.
//
// Mottram's PCF process (arXiv:1309.1752): every potential edge of a base
// graph opens independently at rate 1 (an Exp(1) arrival clock), and every
// connected component of the open subgraph freezes at rate alpha — once a
// component's freeze clock rings it is frozen forever, and no further edge
// incident with it ever opens. As alpha -> 0 the process approaches plain
// percolation; large alpha shatters the graph into many small frozen
// clusters. This is the engine's principled generator of evolving
// environments for walks-on-dynamic-graphs experiments: the walker steps
// while edges keep arriving around it.
//
// Determinism contract: the entire event schedule is a pure function of the
// constructor rng — all edge-open times are drawn up front in base-edge-id
// order, initial per-vertex freeze clocks next, and the merge-time redraws
// come from a private child stream in event-processing order. Processing is
// strictly ordered by (open time, base edge id), so advance_to(t1) then
// advance_to(t2) applies exactly the mutations advance_to(t2) alone would —
// schedule playout is independent of advance granularity, thread count, and
// work-stealing order (pinned by tests/dynamic_graph_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "graph/graph.hpp"
#include "graph/union_find.hpp"
#include "util/rng.hpp"

namespace ewalk {

/// Event schedule of one PCF run over the potential edges of a base graph.
/// Construct, then play into a DynamicGraph with advance_to(); the schedule
/// owns the percolation state (component structure, freeze clocks), the
/// DynamicGraph owns the open subgraph the walker sees.
class PcfSchedule {
 public:
  /// Draws the full schedule from `rng`: one Exp(1) open time per base edge
  /// (in base-edge-id order), one initial Exp(alpha) freeze clock per vertex
  /// (in vertex order), and a private child stream (rng.split()) for the
  /// freeze-clock redraws on component merges. `alpha` must be > 0; the base
  /// graph is borrowed and must outlive the schedule.
  PcfSchedule(const Graph& base, double alpha, Rng& rng);

  /// Applies every not-yet-processed edge-open event with time <= t to
  /// `dyn`, in (time, base edge id) order. An event whose endpoints lie in
  /// an unfrozen component (or two unfrozen components) inserts the edge and
  /// merges; merging two distinct components redraws the merged component's
  /// freeze clock as event_time + Exp(alpha) (memorylessness makes the
  /// fresh draw distributionally exact). An event incident with a frozen
  /// component is blocked forever. `dyn` must be the same graph across
  /// calls, on >= base.num_vertices() vertices.
  void advance_to(double t, DynamicGraph& dyn);

  /// Plays the schedule to exhaustion (every base edge opened or blocked).
  void run_to_completion(DynamicGraph& dyn);

  /// Open time of the next unprocessed event; +infinity once exhausted.
  double next_event_time() const noexcept;

  /// True once every base edge's open event has been processed.
  bool exhausted() const noexcept { return cursor_ == events_.size(); }

  /// Root of v's component in the open subgraph (the edges inserted so
  /// far): two vertices are joined by open edges iff their roots agree.
  Vertex component(Vertex v) { return components_.find(v); }

  /// Edges opened (inserted into the dynamic graph) so far.
  std::uint64_t opened() const noexcept { return opened_; }

  /// Edge-open events blocked by a frozen endpoint component so far.
  std::uint64_t blocked() const noexcept { return blocked_; }

  /// The freezing rate alpha the schedule was drawn with.
  double alpha() const noexcept { return alpha_; }

  /// The base graph whose potential edges the schedule opens.
  const Graph& base() const noexcept { return *base_; }

 private:
  struct Event {
    double time;
    EdgeId base_edge;
  };

  const Graph* base_;
  double alpha_;
  std::vector<Event> events_;        // sorted by (time, base_edge)
  std::size_t cursor_ = 0;
  UnionFind components_;
  std::vector<double> freeze_time_;  // indexed by component root
  Rng merge_rng_;                    // private stream for merge redraws
  std::uint64_t opened_ = 0;
  std::uint64_t blocked_ = 0;
};

}  // namespace ewalk
