#include "interact/coalescing.hpp"

#include <stdexcept>

#include "walks/blue_choice.hpp"
#include "walks/step_core.hpp"

namespace ewalk {

// ---- CoalescingRW ----------------------------------------------------------

CoalescingRW::CoalescingRW(const Graph& g, std::vector<Vertex> starts)
    : g_(&g), tokens_(g, starts), cover_(g.num_vertices(), g.num_edges()) {
  for (const Vertex v : starts) cover_.visit_vertex(v, 0);
}

void CoalescingRW::step(Rng& rng) {
  const TokenSystem::TokenId t = next_token_;
  ++steps_;
  Slot slot;
  if (srw_transition(*g_, tokens_.position(t), rng, &slot) ==
      TransitionKind::kIsolated)
    throw std::logic_error("CoalescingRW: stuck at isolated vertex");
  cover_.visit_edge(slot.edge, steps_);
  const TokenSystem::TokenId other = tokens_.move(t, slot.neighbor, steps_);
  cover_.visit_vertex(slot.neighbor, steps_);
  if (other != TokenSystem::kNoToken) tokens_.kill(t, steps_);  // merge: mover dies
  next_token_ = tokens_.next_alive_after(t);
}

// ---- CoalescingEWalk -------------------------------------------------------

CoalescingEWalk::CoalescingEWalk(const Graph& g, std::vector<Vertex> starts,
                                 std::unique_ptr<UnvisitedEdgeRule> rule)
    : g_(&g), rule_(std::move(rule)),
      uniform_rule_(rule_ != nullptr && rule_->uniform_over_candidates()),
      tokens_(g, starts), cover_(g.num_vertices(), g.num_edges()), blue_(g) {
  if (!rule_) throw std::invalid_argument("CoalescingEWalk: rule is required");
  for (const Vertex v : starts) cover_.visit_vertex(v, 0);
}

void CoalescingEWalk::step(Rng& rng) {
  const TokenSystem::TokenId t = next_token_;
  ++steps_;
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
  const TokenSystem::TokenId other = tokens_.move(t, slot.neighbor, steps_);
  cover_.visit_vertex(slot.neighbor, steps_);
  if (other != TokenSystem::kNoToken) tokens_.kill(t, steps_);  // merge: mover dies
  next_token_ = tokens_.next_alive_after(t);
}

}  // namespace ewalk
