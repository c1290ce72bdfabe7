#include "interact/coalescing.hpp"

#include <stdexcept>

#include "walks/blue_choice.hpp"
#include "walks/step_core.hpp"

namespace ewalk {

// ---- CoalescingRW ----------------------------------------------------------

CoalescingRW::CoalescingRW(const Graph& g, std::vector<Vertex> starts)
    : TokenProcess(g, starts, g.num_edges()) {}

void CoalescingRW::step(Rng& rng) {
  const TokenSystem::TokenId t = begin_turn();
  Slot slot;
  if (srw_transition(*g_, tokens_.position(t), rng, &slot) ==
      TransitionKind::kIsolated)
    throw std::logic_error("CoalescingRW: stuck at isolated vertex");
  cover_.visit_edge(slot.edge, steps_);
  land_and_merge(t, slot.neighbor);
  end_turn(t);
}

// ---- CoalescingEWalk -------------------------------------------------------

CoalescingEWalk::CoalescingEWalk(const Graph& g, std::vector<Vertex> starts,
                                 std::unique_ptr<UnvisitedEdgeRule> rule)
    : TokenProcess(g, starts, g.num_edges()), rule_(std::move(rule)),
      uniform_rule_(rule_ != nullptr && rule_->uniform_over_candidates()),
      blue_(g) {
  if (!rule_) throw std::invalid_argument("CoalescingEWalk: rule is required");
}

void CoalescingEWalk::step(Rng& rng) {
  const TokenSystem::TokenId t = begin_turn();
  StaticBlueIndex index{blue_, *g_, *rule_, uniform_rule_, cover_, steps_};
  Slot slot;
  const TransitionKind kind =
      eprocess_transition(*g_, index, tokens_.position(t), rng, &slot);
  if (kind == TransitionKind::kIsolated)
    throw std::logic_error("CoalescingEWalk: stuck at isolated vertex");
  // A red step's edges are all visited already: no visit_edge bookkeeping.
  if (kind == TransitionKind::kBlue) {
    ++blue_steps_;
  } else {
    ++red_steps_;
  }
  land_and_merge(t, slot.neighbor);
  end_turn(t);
}

}  // namespace ewalk
