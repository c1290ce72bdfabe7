// Backend-generic transition cores shared by every SRW-style and
// edge-process walk: SimpleRandomWalk, EProcess, MultiEProcess,
// CoalescingRW, CoalescingEWalk and the dynamic walks.
//
// `Graph` (immutable CSR) and `DynamicGraphView` (evolving adjacency) expose
// the same degree/slot shape, so the SRW and E-process transition logic is
// written once here as templates over the backend instead of forking the
// step loops. The static walks instantiate these with `Graph` (the
// edge-processes through StaticBlueIndex, walks/blue_choice.hpp) and keep
// their exact historical rng-draw order (pinned by the golden trajectory
// hashes in perf_regression_test); the dynamic walks instantiate them with
// `DynamicGraphView` and translate the "isolated vertex" outcome into a
// counted hold instead of an exception, since an evolving graph legitimately
// strands a walker between edge arrivals.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace ewalk {

/// Outcome of one backend-generic transition attempt.
enum class TransitionKind : std::uint8_t {
  kBlue,      ///< crossed an unvisited edge (E-process only)
  kRed,       ///< uniform SRW move along an incident slot
  kIsolated   ///< the vertex has no incident edges; no rng was consumed
};

/// One SRW transition on any backend with the Graph degree/slot shape:
/// exactly one uniform draw over the `degree(at)` incident slots, written to
/// `*out`. Returns kIsolated (consuming no rng) when `at` has no incident
/// edges — the static walk turns that into the historical logic_error, the
/// dynamic walk into a counted hold.
template <class GraphT>
inline TransitionKind srw_transition(const GraphT& g, Vertex at, Rng& rng,
                                     Slot* out) {
  const std::uint32_t d = g.degree(at);
  if (d == 0) return TransitionKind::kIsolated;
  *out = g.slot(at, static_cast<std::uint32_t>(rng.uniform(d)));
  return TransitionKind::kRed;
}

/// One E-process transition on any backend: if the blue index reports
/// unvisited incident edges at `at`, delegate the choice (and all visit
/// bookkeeping) to `blue.take_blue`; otherwise fall back to the uniform SRW
/// draw. BlueIndexT is the seam between backends — the static walk adapts
/// BluePartition + UnvisitedEdgeRule behind it (preserving the historical
/// choose -> mark -> visit_edge order bit-for-bit), the dynamic walk a
/// journal-synced visited bitmap.
///
/// BlueIndexT requirements:
///   std::uint32_t blue_count(Vertex v) const;  // unvisited incident slots
///   Slot take_blue(Vertex v, Rng& rng);        // choose + mark + record
template <class GraphT, class BlueIndexT>
inline TransitionKind eprocess_transition(const GraphT& g, BlueIndexT& blue,
                                          Vertex at, Rng& rng, Slot* out) {
  if (blue.blue_count(at) > 0) {
    *out = blue.take_blue(at, rng);
    return TransitionKind::kBlue;
  }
  return srw_transition(g, at, rng, out);
}

}  // namespace ewalk
