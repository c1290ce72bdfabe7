// Rule dispatch over a BluePartition: the one blue-step chooser shared by
// EProcess, MultiEProcess, and CoalescingEWalk, and the StaticBlueIndex
// that plugs it into step_core.hpp's eprocess_transition.
//
// The dispatch is index-based and lazy: the rule's choose_index() returns a
// position into the blue prefix and reads any candidate it cares about in
// O(1) through the EProcessView — no candidate span is ever materialised.
// Rules that declare themselves uniform skip even the virtual dispatch: the
// chooser samples a position directly with the identical rng draw
// (uniform(blue_count)) a uniform choose_index() would make, so both paths
// produce the same walk bit-for-bit.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "walks/blue_partition.hpp"
#include "walks/cover_state.hpp"
#include "walks/eprocess.hpp"

namespace ewalk {

/// Chooses among the blue slots of v (blue_count(v) >= 1 required) and
/// returns the chosen position in v's blue prefix. `uniform_rule` is
/// rule.uniform_over_candidates(), hoisted by the caller at construction so
/// the hot path pays no per-step virtual query.
inline std::uint32_t choose_blue_position(const BluePartition& blue,
                                          const Graph& g, Vertex v,
                                          UnvisitedEdgeRule& rule,
                                          bool uniform_rule,
                                          const CoverState& cover,
                                          std::uint64_t steps, Rng& rng) {
  const std::uint32_t b = blue.blue_count(v);
  if (uniform_rule) return static_cast<std::uint32_t>(rng.uniform(b));
  const EProcessView view(g, cover, blue, steps);
  const std::uint32_t idx = rule.choose_index(view, v, b, rng);
  if (idx >= b)
    throw std::logic_error("UnvisitedEdgeRule returned out-of-range index");
  return idx;
}

/// Adapts the static-path machinery (BluePartition + UnvisitedEdgeRule +
/// CoverState) to the BlueIndexT seam of eprocess_transition
/// (walks/step_core.hpp) for EProcess, MultiEProcess and CoalescingEWalk.
/// take_blue performs choose -> mark -> visit_edge in that order, the order
/// the golden hashes in perf_regression_test pin. Built per step: `steps`
/// is the step being made.
struct StaticBlueIndex {
  BluePartition& blue;      ///< the walk's blue/red partition
  const Graph& g;           ///< the graph walked on
  UnvisitedEdgeRule& rule;  ///< the walk's choice rule
  bool uniform_rule;        ///< rule.uniform_over_candidates(), hoisted
  CoverState& cover;        ///< the walk's cover bookkeeping
  std::uint64_t steps;      ///< step index recorded for the visited edge

  /// Unvisited incident slots of v.
  std::uint32_t blue_count(Vertex v) const { return blue.blue_count(v); }

  /// Chooses a blue slot of v, marks its edge visited and records the visit.
  Slot take_blue(Vertex v, Rng& rng) {
    const std::uint32_t p =
        choose_blue_position(blue, g, v, rule, uniform_rule, cover, steps, rng);
    const Slot chosen = blue.mark_slot_visited(g, v, blue.local_slot(g, v, p));
    cover.visit_edge(chosen.edge, steps);
    return chosen;
  }
};

}  // namespace ewalk
