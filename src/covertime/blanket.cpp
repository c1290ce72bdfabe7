#include "covertime/blanket.hpp"

#include <stdexcept>

#include "engine/driver.hpp"
#include "walks/srw.hpp"

namespace ewalk {

BlanketResult measure_blanket_time(const Graph& g, Vertex start, double delta,
                                   Rng& rng, std::uint64_t max_steps,
                                   std::uint64_t check_every) {
  if (delta <= 0.0 || delta >= 1.0)
    throw std::invalid_argument("measure_blanket_time: delta must be in (0,1)");
  if (check_every == 0) check_every = g.num_vertices();

  SimpleRandomWalk walk(g, start);
  BlanketResult out;
  while (walk.steps() < max_steps) {
    for (std::uint64_t i = 0; i < check_every && walk.steps() < max_steps; ++i)
      walk.step(rng);
    const double t = static_cast<double>(walk.steps());
    bool blanketed = true;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (walk.cover().visit_count(v) < delta * g.stationary_probability(v) * t) {
        blanketed = false;
        break;
      }
    }
    if (blanketed) {
      out.blanket_step = walk.steps();
      out.reached = true;
      return out;
    }
  }
  out.blanket_step = max_steps;
  return out;
}

std::uint64_t measure_visit_all_r_times(const Graph& g, Vertex start,
                                        std::uint32_t count, Rng& rng,
                                        std::uint64_t max_steps) {
  SimpleRandomWalk walk(g, start);
  if (run_until(walk, rng, MinVisitCountAtLeast{count}, max_steps,
                visit_count_stride(g)))
    return walk.steps();
  return max_steps;
}

}  // namespace ewalk
