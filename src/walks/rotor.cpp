#include "walks/rotor.hpp"

namespace ewalk {

RotorRouter::RotorRouter(const Graph& g, Vertex start)
    : SingleWalk(g, start, "RotorRouter"), rotor_(g.num_vertices(), 0) {}

void RotorRouter::step() {
  const std::uint32_t d = exit_degree();
  const Vertex v = current();
  const std::uint32_t k = rotor_[v];
  rotor_[v] = (k + 1) % d;
  cross(graph().slot(v, k));
}

}  // namespace ewalk
