// Rotor-router (Propp machine) walk — deterministic baseline (Section 1).
//
// Each vertex keeps a rotor over its incident slots; the walk exits along
// the rotor's slot and advances the rotor. Cover time is O(mD) (Yanovski,
// Wagner, Bruckstein), which the baselines bench contrasts with the
// E-process. The E-process itself is described by the paper as "a hybrid
// between a rotor-router and a random walk".
#pragma once

#include <cstdint>
#include <vector>

#include "engine/process.hpp"
#include "graph/graph.hpp"

namespace ewalk {

class RotorRouter final : public SingleWalk {
 public:
  RotorRouter(const Graph& g, Vertex start);

  /// One deterministic transition.
  void step();
  /// Engine-driver entry point; the rng is ignored (deterministic process).
  void step(Rng&) override { step(); }

 private:
  std::vector<std::uint32_t> rotor_;  // next slot index per vertex
};

}  // namespace ewalk
