// Concrete choice rules A for the E-process.
//
// Theorem 1 holds for *any* rule, "even if this choice is decided on-line by
// an adversary"; the rule-independence bench exercises each of these:
//   * UniformRule       — u.a.r. among blue edges; this instance of the
//                         E-process is the Greedy Random Walk of
//                         Orenshtein–Shinkar.
//   * FirstSlotRule     — deterministic: lowest incident slot first.
//   * LastSlotRule      — deterministic: highest incident slot first.
//   * RoundRobinRule    — rotor-like pointer per vertex over blue slots.
//   * PreferVisitedEndpointRule   — adversary: steers the blue walk toward
//                         already well-visited territory, away from new
//                         vertices (most visit-count endpoint first).
//   * PreferUnvisitedEndpointRule — greedy helper: moves toward unvisited
//                         endpoints when possible (lower bound foil).
//
// All rules implement the index-based choose_index() API: they return a
// position into the blue prefix and read only the candidates they need in
// O(1) through the view, so no rule copies the candidate span. Uniform,
// first-slot, last-slot, and round-robin are O(1) per blue step; the
// endpoint- and priority-inspecting rules are O(blue_count) by nature (they
// scan every candidate) but pay no copy.
#pragma once

#include <vector>

#include "walks/eprocess.hpp"

namespace ewalk {

/// Uniform over blue candidates: one rng.uniform(blue_count) draw. The walk
/// detects uniform_over_candidates() and samples the position itself without
/// the virtual call — with the identical draw, so both paths coincide.
class UniformRule final : public UnvisitedEdgeRule {
 public:
  std::uint32_t choose_index(const EProcessView&, Vertex,
                             std::uint32_t blue_count, Rng& rng) override {
    return static_cast<std::uint32_t>(rng.uniform(blue_count));
  }
  bool uniform_over_candidates() const override { return true; }
};

/// Deterministic: always the blue slot at position 0. O(1).
class FirstSlotRule final : public UnvisitedEdgeRule {
 public:
  std::uint32_t choose_index(const EProcessView&, Vertex, std::uint32_t,
                             Rng&) override {
    return 0;
  }
};

/// Deterministic: always the blue slot at the last position. O(1).
class LastSlotRule final : public UnvisitedEdgeRule {
 public:
  std::uint32_t choose_index(const EProcessView&, Vertex,
                             std::uint32_t blue_count, Rng&) override {
    return blue_count - 1;
  }
};

/// Deterministic per-vertex rotating pointer over whatever blue candidates
/// remain — an on-line deterministic rule in the spirit of rotor-routers.
/// O(1) per blue step: the pointer is reduced mod blue_count without ever
/// looking at a candidate.
class RoundRobinRule final : public UnvisitedEdgeRule {
 public:
  explicit RoundRobinRule(Vertex n) : next_(n, 0) {}
  std::uint32_t choose_index(const EProcessView&, Vertex at,
                             std::uint32_t blue_count, Rng&) override {
    const std::uint32_t idx = next_[at] % blue_count;
    next_[at] = idx + 1;
    return idx;
  }

 private:
  std::vector<std::uint32_t> next_;
};

/// Adversarial rule: among blue edges, pick the endpoint the walk has
/// visited most often (delaying discovery of new vertices). Ties break to
/// the lowest slot, so the rule is deterministic given the walk history.
/// O(blue_count): inspects every candidate lazily through the view.
class PreferVisitedEndpointRule final : public UnvisitedEdgeRule {
 public:
  std::uint32_t choose_index(const EProcessView& view, Vertex at,
                             std::uint32_t blue_count, Rng&) override {
    std::uint32_t best = 0;
    std::uint32_t best_count =
        view.cover().visit_count(view.blue_slot(at, 0).neighbor);
    for (std::uint32_t i = 1; i < blue_count; ++i) {
      const std::uint32_t c =
          view.cover().visit_count(view.blue_slot(at, i).neighbor);
      if (c > best_count) {
        best = i;
        best_count = c;
      }
    }
    return best;
  }
};

/// Offline adversary: a fixed priority permutation over *edge ids*, drawn
/// once at construction (or supplied). At each blue step the candidate with
/// the highest priority wins. Models the paper's "the rule could ... vary
/// from vertex to vertex" / offline-adversary allowance: the entire schedule
/// is fixed before the walk starts. O(blue_count) per blue step.
class FixedPriorityRule final : public UnvisitedEdgeRule {
 public:
  /// Draws a uniform priority permutation over the edge ids from `rng`.
  FixedPriorityRule(EdgeId num_edges, Rng& rng) : priority_(num_edges) {
    for (EdgeId e = 0; e < num_edges; ++e) priority_[e] = e;
    rng.shuffle(std::span<EdgeId>(priority_));
  }
  /// Uses a caller-supplied priority table (lower value = higher priority).
  explicit FixedPriorityRule(std::vector<EdgeId> priority)
      : priority_(std::move(priority)) {}

  std::uint32_t choose_index(const EProcessView& view, Vertex at,
                             std::uint32_t blue_count, Rng&) override {
    std::uint32_t best = 0;
    EdgeId best_priority = priority_[view.blue_slot(at, 0).edge];
    for (std::uint32_t i = 1; i < blue_count; ++i) {
      const EdgeId p = priority_[view.blue_slot(at, i).edge];
      if (p < best_priority) {
        best = i;
        best_priority = p;
      }
    }
    return best;
  }

 private:
  std::vector<EdgeId> priority_;
};

/// Greedy rule: prefer blue edges leading to unvisited endpoints, uniformly
/// among them (reservoir sample); uniform among all candidates when every
/// blue endpoint is already visited. O(blue_count) per blue step.
class PreferUnvisitedEndpointRule final : public UnvisitedEdgeRule {
 public:
  std::uint32_t choose_index(const EProcessView& view, Vertex at,
                             std::uint32_t blue_count, Rng& rng) override {
    std::uint32_t unvisited_seen = 0;
    std::uint32_t pick = 0;
    for (std::uint32_t i = 0; i < blue_count; ++i) {
      if (!view.cover().vertex_visited(view.blue_slot(at, i).neighbor)) {
        ++unvisited_seen;
        // Reservoir sample uniformly among unvisited endpoints.
        if (rng.uniform(unvisited_seen) == 0) pick = i;
      }
    }
    if (unvisited_seen > 0) return pick;
    return static_cast<std::uint32_t>(rng.uniform(blue_count));
  }
};

}  // namespace ewalk
