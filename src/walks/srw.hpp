// Simple random walk (SRW) and its lazy variant.
//
// The SRW is both the baseline the paper's lower bounds speak about
// (C_V >= (1-o(1)) n log n, Feige) and the embedded "red walk" of the
// E-process. Laziness (stay put with probability 1/2) is the paper's
// standard fix for bipartite graphs, where λ_n = -1 breaks mixing.
#pragma once

#include <cstdint>

#include "engine/process.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace ewalk {

struct SrwOptions {
  bool lazy = false;  ///< stay put with probability 1/2 before each move
};

class SimpleRandomWalk final : public SingleWalk {
 public:
  SimpleRandomWalk(const Graph& g, Vertex start, SrwOptions options = {});

  /// One transition (a lazy hold still counts as a step). Drive to a
  /// termination condition with the engine driver (engine/driver.hpp).
  void step(Rng& rng) override;

 private:
  SrwOptions options_;
};

}  // namespace ewalk
