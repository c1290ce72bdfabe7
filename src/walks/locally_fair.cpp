#include "walks/locally_fair.hpp"

namespace ewalk {

LocallyFairWalk::LocallyFairWalk(const Graph& g, Vertex start, FairnessCriterion criterion)
    : SingleWalk(g, start, "LocallyFairWalk"), criterion_(criterion),
      key_(g.num_edges(), 0) {}

void LocallyFairWalk::step() {
  exit_degree();
  const auto slots = graph().slots(current());

  std::size_t best = 0;
  for (std::size_t i = 1; i < slots.size(); ++i)
    if (key_[slots[i].edge] < key_[slots[best].edge]) best = i;
  const Slot chosen = slots[best];
  cross(chosen);
  key_[chosen.edge] =
      criterion_ == FairnessCriterion::kLeastUsedFirst ? key_[chosen.edge] + 1 : steps();
}

}  // namespace ewalk
