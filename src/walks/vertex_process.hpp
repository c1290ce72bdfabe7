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

namespace ewalk {

class UnvisitedVertexWalk final : public SingleWalk {
 public:
  UnvisitedVertexWalk(const Graph& g, Vertex start);

  void step(Rng& rng) override;

 private:
  std::vector<Slot> scratch_;
};

}  // namespace ewalk
