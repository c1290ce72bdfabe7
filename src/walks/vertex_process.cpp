#include "walks/vertex_process.hpp"

namespace ewalk {

UnvisitedVertexWalk::UnvisitedVertexWalk(const Graph& g, Vertex start)
    : SingleWalk(g, start, "UnvisitedVertexWalk") {
  scratch_.reserve(g.max_degree());
}

void UnvisitedVertexWalk::step(Rng& rng) {
  const std::uint32_t deg = exit_degree();

  scratch_.clear();
  for (const Slot& s : graph().slots(current()))
    if (!cover().vertex_visited(s.neighbor)) scratch_.push_back(s);

  if (!scratch_.empty())
    cross(scratch_[static_cast<std::size_t>(rng.uniform(scratch_.size()))]);
  else
    cross(graph().slot(current(), static_cast<std::uint32_t>(rng.uniform(deg))));
}

}  // namespace ewalk
