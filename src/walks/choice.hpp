// Random Walk with Choice, RWC(d) — Avin & Krishnamachari's process
// (cited in Section 1): at each step sample d incident slots uniformly at
// random and move to the sampled neighbour with the fewest visits so far
// (ties broken uniformly among the tied samples).
#pragma once

#include <cstdint>

#include "engine/process.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "walks/cover_state.hpp"

namespace ewalk {

class RandomWalkWithChoice final : public WalkProcess {
 public:
  /// `d` >= 1 samples per step; d == 1 degenerates to the SRW.
  RandomWalkWithChoice(const Graph& g, Vertex start, std::uint32_t d);

  void step(Rng& rng) override;

  Vertex current() const override { return current_; }
  std::uint64_t steps() const override { return steps_; }
  const Graph& graph() const override { return *g_; }
  const CoverState& cover() const override { return cover_; }

 private:
  const Graph* g_;
  std::uint32_t d_;
  Vertex current_;
  std::uint64_t steps_ = 0;
  CoverState cover_;
};

}  // namespace ewalk
