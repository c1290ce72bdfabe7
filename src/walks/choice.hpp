// Random Walk with Choice, RWC(d) — Avin & Krishnamachari's process
// (cited in Section 1): at each step sample d incident slots uniformly at
// random and move to the sampled neighbour with the fewest visits so far
// (ties broken uniformly among the tied samples).
#pragma once

#include <cstdint>

#include "engine/process.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace ewalk {

class RandomWalkWithChoice final : public SingleWalk {
 public:
  /// `d` >= 1 samples per step; d == 1 degenerates to the SRW.
  RandomWalkWithChoice(const Graph& g, Vertex start, std::uint32_t d);

  void step(Rng& rng) override;

 private:
  std::uint32_t d_;
};

}  // namespace ewalk
