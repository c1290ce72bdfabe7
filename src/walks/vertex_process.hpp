// Unvisited-*vertex*-preferring walk (the V-process of the authors'
// companion paper, arXiv 2012, reference [4]): if the current vertex has
// unvisited neighbours, move to one chosen u.a.r.; otherwise take a simple
// random walk step. Contrast with the E-process which prefers unvisited
// *edges* — Figure-1-style benches compare the two.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/process.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "walks/cover_state.hpp"

namespace ewalk {

class UnvisitedVertexWalk final : public WalkProcess {
 public:
  UnvisitedVertexWalk(const Graph& g, Vertex start);

  void step(Rng& rng) override;

  Vertex current() const override { return current_; }
  std::uint64_t steps() const override { return steps_; }
  const Graph& graph() const override { return *g_; }
  const CoverState& cover() const override { return cover_; }

 private:
  const Graph* g_;
  Vertex current_;
  std::uint64_t steps_ = 0;
  CoverState cover_;
  std::vector<Slot> scratch_;
};

}  // namespace ewalk
