#include "walks/multi_eprocess.hpp"

#include <stdexcept>
#include <utility>

#include "walks/blue_choice.hpp"
#include "walks/step_core.hpp"

namespace ewalk {

MultiEProcess::MultiEProcess(const Graph& g, std::vector<Vertex> starts,
                             std::unique_ptr<UnvisitedEdgeRule> rule)
    : g_(&g), rule_(std::move(rule)),
      uniform_rule_(rule_ != nullptr && rule_->uniform_over_candidates()),
      positions_(std::move(starts)),
      cover_(g.num_vertices(), g.num_edges()), blue_(g) {
  if (!rule_) throw std::invalid_argument("MultiEProcess: rule is required");
  if (positions_.empty())
    throw std::invalid_argument("MultiEProcess: need at least one walker");
  for (const Vertex v : positions_) {
    if (v >= g.num_vertices())
      throw std::invalid_argument("MultiEProcess: start vertex out of range");
  }
  for (const Vertex v : positions_) cover_.visit_vertex(v, 0);
}

void MultiEProcess::step(Rng& rng) {
  const std::uint32_t w = next_walker_;
  next_walker_ = (next_walker_ + 1) % num_walkers();
  ++steps_;
  StaticBlueIndex index{blue_, *g_, *rule_, uniform_rule_, cover_, steps_};
  Slot slot;
  const TransitionKind kind =
      eprocess_transition(*g_, index, positions_[w], rng, &slot);
  if (kind == TransitionKind::kIsolated)
    throw std::logic_error("MultiEProcess: stuck at isolated vertex");
  if (kind == TransitionKind::kBlue) {
    ++blue_steps_;
  } else {
    ++red_steps_;
  }
  positions_[w] = slot.neighbor;
  cover_.visit_vertex(slot.neighbor, steps_);
}

}  // namespace ewalk
