#include "walks/locally_fair.hpp"

namespace ewalk {

LocallyFairWalk::LocallyFairWalk(const Graph& g, Vertex start, FairnessCriterion criterion)
    : SingleWalk(g, start, "LocallyFairWalk"), criterion_(criterion),
      traversals_(g.num_edges(), 0), last_used_(g.num_edges(), 0) {}

void LocallyFairWalk::step() {
  exit_degree();
  const auto slots = graph().slots(current());

  std::size_t best = 0;
  for (std::size_t i = 1; i < slots.size(); ++i) {
    if (criterion_ == FairnessCriterion::kLeastUsedFirst) {
      if (traversals_[slots[i].edge] < traversals_[slots[best].edge]) best = i;
    } else {
      if (last_used_[slots[i].edge] < last_used_[slots[best].edge]) best = i;
    }
  }
  const Slot chosen = slots[best];
  ++traversals_[chosen.edge];
  cross(chosen);
  last_used_[chosen.edge] = steps();
}

}  // namespace ewalk
