// The E-process (edge-process): the paper's primary contribution.
//
// At each step, if the current vertex has unvisited ("blue") incident edges,
// the walk crosses one of them — chosen by an arbitrary rule A — and marks
// it visited ("red"); otherwise it takes a simple-random-walk step along a
// uniformly random incident edge. The choice rule A may be randomised,
// deterministic, or adversarial (it sees the full walk state); Theorem 1's
// cover-time bound is independent of A.
//
// Implementation notes:
//  * Per-vertex incident slots are kept partitioned blue-prefix/red-suffix
//    (walks/blue_partition.hpp) with an O(1) swap on every edge visit, so a
//    red step is O(1). Blue steps are index-based and lazy: the rule returns
//    an index into the blue prefix via choose_index(), reading any candidate
//    it cares about in O(1) through the view (EProcessView::blue_slot) — no
//    rule ever copies the candidate span, so a blue step costs O(1) plus
//    whatever the rule itself inspects (O(1) for uniform / first / last /
//    round-robin; O(blue_count) for rules that scan every candidate).
//    Rules that declare themselves uniform (UniformRule) additionally skip
//    the virtual dispatch: the walk samples the position directly with the
//    identical rng draw, so both paths produce the same walk
//    (walks/blue_choice.hpp).
//  * The walk distinguishes blue and red transitions, exposing t_R and t_B
//    (Observation 12: t = t_R + t_B with t_B <= m), and can record maximal
//    blue/red phases for invariant checking (Observation 10: on even-degree
//    graphs a blue phase ends at the vertex where it started).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "walks/blue_partition.hpp"
#include "walks/cover_state.hpp"

namespace ewalk {

/// Read-only view of walk state offered to choice rules (adversaries may
/// inspect anything; they cannot mutate). Constructed by the walk each blue
/// step; also usable by other unvisited-edge processes (MultiEProcess,
/// CoalescingEWalk). The view carries the walk's BluePartition, so rules can
/// read any blue candidate lazily in O(1) via blue_slot() instead of
/// receiving a materialised span.
class EProcessView {
 public:
  /// Full view: walk state plus the blue partition; blue_slot()/blue_count()
  /// are always valid. This is what every blue step constructs.
  EProcessView(const Graph& graph, const CoverState& cover,
               const BluePartition& blue, std::uint64_t steps)
      : graph_(&graph), cover_(&cover), blue_(&blue), steps_(steps) {}

  /// The graph the walk runs on.
  const Graph& graph() const { return *graph_; }
  /// Cover-progress bookkeeping (visited flags, visit counts, cover steps).
  const CoverState& cover() const { return *cover_; }
  /// Transitions made so far, counting the in-flight one.
  std::uint64_t steps() const { return steps_; }

  /// Number of blue (unvisited) edges incident with v right now. O(1).
  std::uint32_t blue_count(Vertex v) const { return blue_->blue_count(v); }

  /// The i-th blue slot of v, 0 <= i < blue_count(v). O(1); the enumeration
  /// order (partition order) is part of the rule-API contract — it is the
  /// order the historical span path presented candidates in, so index-based
  /// rules are choice-for-choice identical to their span ancestors.
  Slot blue_slot(Vertex v, std::uint32_t i) const {
    return blue_->blue_slot(*graph_, v, i);
  }

 private:
  const Graph* graph_;
  const CoverState* cover_;
  const BluePartition* blue_;
  std::uint64_t steps_;
};

/// Rule A: chooses among the blue (unvisited) edges at the current vertex.
///
/// The API is index-based and lazy: choose_index() receives the number of
/// blue candidates at `at` (>= 1) and returns an index into the blue
/// prefix, reading any candidate it needs in O(1) through
/// view.blue_slot(at, i). No span is materialised, so a blue step costs
/// O(1) plus only what the rule actually inspects. Rules may use the rng
/// (uniform rule), internal state (round-robin), or the full walk state
/// (adversary) — Theorem 1's cover bound is independent of the rule.
///
/// (The span-consuming choose() predecessor and its adapter were removed
/// after their one-release deprecation window; the candidate enumeration
/// order it defined is preserved verbatim by blue_slot(), pinned by
/// tests/rule_stream_identity_test.cpp against span-era twins.)
class UnvisitedEdgeRule {
 public:
  virtual ~UnvisitedEdgeRule() = default;

  /// Chooses among the `blue_count` blue slots of `at` (blue_count >= 1);
  /// returns an index in [0, blue_count). Candidate i is view.blue_slot(at,
  /// i), available in O(1) — read only what the rule needs. Implementations
  /// must draw from `rng` deterministically as a function of (visible walk
  /// state, rule state), so walks stay reproducible per seed.
  virtual std::uint32_t choose_index(const EProcessView& view, Vertex at,
                                     std::uint32_t blue_count, Rng& rng) = 0;

  /// True iff choose_index() is exactly one uniform draw over the candidates
  /// (rng.uniform(blue_count)) with no other state. Walks use this to skip
  /// the virtual dispatch entirely: they sample the position directly,
  /// preserving the rng stream bit-for-bit.
  virtual bool uniform_over_candidates() const { return false; }
};

/// Transition colour of a step.
enum class StepColor : std::uint8_t {
  kBlue,  ///< crossed a previously unvisited edge (and marked it visited)
  kRed    ///< simple-random-walk step (no blue edge was available)
};

/// One maximal single-colour phase (for invariant checks / instrumentation).
struct Phase {
  StepColor color;            ///< colour of every transition in the phase
  std::uint64_t first_step;   ///< step index of the phase's first transition
  std::uint64_t last_step;    ///< step index of the phase's last transition
  Vertex start_vertex;        ///< vertex occupied before the first transition
  Vertex end_vertex;          ///< vertex occupied after the last transition
};

/// Construction-time options for EProcess.
struct EProcessOptions {
  bool record_phases = false;  ///< keep the full Phase log (O(#phases) memory)
};

/// The paper's E-process: one walker preferring unvisited ("blue") incident
/// edges — chosen by an UnvisitedEdgeRule — with SRW fallback when none
/// remain. Vertex cover is O(n) whp on even-degree connected graphs
/// (Theorem 1), for every rule.
class EProcess {
 public:
  /// The rule is borrowed and must outlive the process.
  EProcess(const Graph& g, Vertex start, UnvisitedEdgeRule& rule,
           EProcessOptions options = {});

  /// Performs one transition. Returns its colour. Drive to a termination
  /// condition with the generic engine driver (engine/driver.hpp), e.g.
  /// run_until(walk, rng, VertexCovered{}, budget).
  StepColor step(Rng& rng);

  /// Vertex the walk currently occupies.
  Vertex current() const { return current_; }
  /// Vertex the walk started at.
  Vertex start_vertex() const { return start_; }
  /// Transitions made so far.
  std::uint64_t steps() const { return steps_; }
  /// Red (SRW-fallback) transitions made so far.
  std::uint64_t red_steps() const { return red_steps_; }
  /// Blue (unvisited-edge) transitions made so far; t_B <= m (Obs. 12).
  std::uint64_t blue_steps() const { return blue_steps_; }

  /// The graph the walk runs on.
  const Graph& graph() const { return *g_; }
  /// Cover-progress bookkeeping.
  const CoverState& cover() const { return cover_; }

  /// Number of blue (unvisited) edges incident with v right now.
  std::uint32_t blue_degree(Vertex v) const { return blue_.blue_count(v); }

  /// Hints the hardware to pull everything a step at v will touch into
  /// cache: the CSR adjacency row (Graph::prefetch_hint) and the blue
  /// partition state (BluePartition::prefetch_hint). Issued by interleaved
  /// trial bundles (engine/bundle.hpp) for the walk's next position while
  /// other bundled trials step, hiding the dependent-load DRAM latency that
  /// dominates n >= 1e6 graphs. Pure hint: no state changes, never faults.
  void prefetch_hint(Vertex v) const noexcept {
    g_->prefetch_hint(v);
    blue_.prefetch_hint(*g_, v);
  }

  /// Phase log (empty unless options.record_phases). The currently open
  /// phase is included with its running end.
  const std::vector<Phase>& phases() const { return phases_; }

 private:
  void note_transition(StepColor color, Vertex from, Vertex to);

  const Graph* g_;
  UnvisitedEdgeRule* rule_;
  bool uniform_rule_;  // rule_->uniform_over_candidates(), hoisted once
  EProcessOptions options_;
  Vertex start_;
  Vertex current_;
  std::uint64_t steps_ = 0;
  std::uint64_t red_steps_ = 0;
  std::uint64_t blue_steps_ = 0;
  CoverState cover_;
  BluePartition blue_;
  std::vector<Phase> phases_;
};

}  // namespace ewalk
