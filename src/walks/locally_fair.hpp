// Locally fair exploration strategies (Cooper, Ilcinkas, Klasing, Kosowski,
// Distributed Computing 2011 — reference [5] of the paper):
//   * Least-Used-First: leave the current vertex along the incident edge
//     traversed the fewest times so far (covers all edges in O(mD); fair
//     long-run edge frequencies).
//   * Oldest-First: leave along the incident edge that has waited the
//     longest since its last traversal (can be exponentially slow on some
//     graphs — the baselines bench exhibits the contrast).
// Both are deterministic; ties break by slot order.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/process.hpp"
#include "graph/graph.hpp"

namespace ewalk {

enum class FairnessCriterion : std::uint8_t { kLeastUsedFirst, kOldestFirst };

class LocallyFairWalk final : public SingleWalk {
 public:
  LocallyFairWalk(const Graph& g, Vertex start, FairnessCriterion criterion);

  void step();
  /// Engine-driver entry point; the rng is ignored (deterministic process).
  void step(Rng&) override { step(); }

 private:
  FairnessCriterion criterion_;
  // Per edge, the quantity the criterion minimises: the traversal count
  // (least-used) or the step of the last traversal, 0 == never (oldest).
  std::vector<std::uint64_t> key_;
};

}  // namespace ewalk
