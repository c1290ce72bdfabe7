#include "engine/pcf_process.hpp"

#include <algorithm>

namespace ewalk {

PcfCoalescingSrw::PcfCoalescingSrw(const Graph& base,
                                   std::vector<Vertex> starts, double alpha,
                                   double time_per_step, Rng& schedule_rng)
    : TokenProcess(base, starts, /*cover_edges=*/1), dyn_(base.num_vertices()),
      schedule_(base, alpha, schedule_rng), view_(dyn_),
      time_per_step_(time_per_step) {
  if (!(time_per_step > 0.0))
    throw std::invalid_argument("PcfCoalescingSrw: time_per_step must be > 0");
}

void PcfCoalescingSrw::step(Rng& rng) {
  time_ += time_per_step_;
  schedule_.advance_to(time_, dyn_);
  if (!settled_ && schedule_.exhausted()) {
    // The graph is final: tokens meet only inside a component.
    settled_ = true;
    std::vector<Vertex> held;
    for (TokenSystem::TokenId t = 0; t < tokens_.initial_tokens(); ++t)
      if (tokens_.alive(t)) held.push_back(schedule_.component(tokens_.position(t)));
    std::sort(held.begin(), held.end());
    token_floor_ = static_cast<std::uint32_t>(
        std::unique(held.begin(), held.end()) - held.begin());
  }
  const TokenSystem::TokenId t = begin_turn();
  const Vertex v = tokens_.position(t);
  Slot slot;
  if (srw_transition(view_, v, rng, &slot) == TransitionKind::kIsolated) {
    // Stranded until an edge arrives: a counted hold, no rng consumed.
    ++holds_;
    cover_.visit_vertex(v, steps_);
  } else {
    land_and_merge(t, slot.neighbor);
  }
  end_turn(t);
}

}  // namespace ewalk
