// Herman's self-stabilising token protocol on a ring.
//
// Herman (1990): an odd number of tokens live on a cycle; each token, when
// scheduled, keeps its place with probability 1/2 and otherwise passes one
// position clockwise. Two tokens landing on the same vertex annihilate in
// pairs, so the population parity is invariant — starting odd, the system
// stabilises to exactly one token. The expected stabilisation time is
// O(n^2), with the worst case (the Herman-protocol conjecture, proved by
// Bruna et al.) being three equally spaced tokens at 4n^2/27.
//
// This implementation schedules one token per step() — round-robin over the
// alive population, the same asynchronous-stepping convention as the
// coalescing processes — and works on any 2-regular connected graph: the
// clockwise orientation is derived by walking the cycle once at
// construction, so relabelled cycles behave identically to cycle_graph(n).
#pragma once

#include <cstdint>
#include <vector>

#include "engine/token_process.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace ewalk {

class HermanRing final : public TokenProcess {
 public:
  /// `g` must be a cycle (2-regular, connected, n >= 3); `starts` must hold
  /// an odd number of distinct vertices — the parity invariant is what
  /// guarantees stabilisation to a single token.
  HermanRing(const Graph& g, std::vector<Vertex> starts);

  void step(Rng& rng) override;

  /// Clockwise successor of v in the derived ring orientation.
  Vertex successor(Vertex v) const { return successor_[v]; }
  /// Annihilation events so far (each removes two tokens).
  std::uint64_t annihilations() const { return annihilations_; }

 private:
  std::vector<Vertex> successor_;
  std::vector<EdgeId> successor_edge_;
  std::uint64_t annihilations_ = 0;
};

}  // namespace ewalk
