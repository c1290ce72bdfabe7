#include "walks/srw.hpp"

#include "walks/step_core.hpp"

namespace ewalk {

SimpleRandomWalk::SimpleRandomWalk(const Graph& g, Vertex start, SrwOptions options)
    : SingleWalk(g, start, "SimpleRandomWalk"), options_(options) {}

void SimpleRandomWalk::step(Rng& rng) {
  if (options_.lazy && rng.bernoulli(0.5)) {
    stay();
    return;
  }
  Slot slot;
  if (srw_transition(graph(), current(), rng, &slot) == TransitionKind::kIsolated)
    stuck();
  cross(slot);
}

}  // namespace ewalk
