#include "walks/choice.hpp"

#include <stdexcept>

namespace ewalk {

RandomWalkWithChoice::RandomWalkWithChoice(const Graph& g, Vertex start, std::uint32_t d)
    : SingleWalk(g, start, "RandomWalkWithChoice"), d_(d) {
  if (d == 0) throw std::invalid_argument("RandomWalkWithChoice: d must be >= 1");
}

void RandomWalkWithChoice::step(Rng& rng) {
  const std::uint32_t deg = exit_degree();
  const Vertex v = current();

  // Sample d slots with replacement; keep the least-visited neighbour,
  // breaking ties uniformly via reservoir counting.
  Slot best = graph().slot(v, static_cast<std::uint32_t>(rng.uniform(deg)));
  std::uint32_t best_visits = cover().visit_count(best.neighbor);
  std::uint32_t ties = 1;
  for (std::uint32_t i = 1; i < d_; ++i) {
    const Slot s = graph().slot(v, static_cast<std::uint32_t>(rng.uniform(deg)));
    const std::uint32_t c = cover().visit_count(s.neighbor);
    if (c < best_visits) {
      best = s;
      best_visits = c;
      ties = 1;
    } else if (c == best_visits) {
      ++ties;
      if (rng.uniform(ties) == 0) best = s;
    }
  }
  cross(best);
}

}  // namespace ewalk
