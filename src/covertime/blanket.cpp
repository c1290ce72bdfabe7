#include "covertime/blanket.hpp"

#include "engine/driver.hpp"
#include "walks/srw.hpp"

namespace ewalk {

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
