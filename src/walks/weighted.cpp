#include "walks/weighted.hpp"

#include <stdexcept>

namespace ewalk {

AliasTable::AliasTable(const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  if (n == 0) throw std::invalid_argument("AliasTable: empty weights");
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) throw std::invalid_argument("AliasTable: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("AliasTable: zero total weight");

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) scaled[i] = weights[i] * n / total;

  std::vector<std::uint32_t> small, large;
  for (std::size_t i = 0; i < n; ++i)
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));

  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (const std::uint32_t i : large) prob_[i] = 1.0;
  for (const std::uint32_t i : small) prob_[i] = 1.0;  // numerical leftovers
}

std::uint32_t AliasTable::sample(Rng& rng) const {
  const std::uint32_t i = static_cast<std::uint32_t>(rng.uniform(prob_.size()));
  return rng.uniform_real() < prob_[i] ? i : alias_[i];
}

WeightedRandomWalk::WeightedRandomWalk(const Graph& g, Vertex start,
                                       const std::vector<double>& edge_weights)
    : SingleWalk(g, start, "WeightedRandomWalk"),
      vertex_weight_(g.num_vertices(), 0.0) {
  if (edge_weights.size() != g.num_edges())
    throw std::invalid_argument("WeightedRandomWalk: one weight per edge required");
  for (const double w : edge_weights)
    if (w <= 0.0) throw std::invalid_argument("WeightedRandomWalk: weights must be positive");

  tables_.reserve(g.num_vertices());
  std::vector<double> local;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    local.clear();
    for (const Slot& s : g.slots(v)) {
      local.push_back(edge_weights[s.edge]);
      vertex_weight_[v] += edge_weights[s.edge];
    }
    total_weight_ += vertex_weight_[v];
    tables_.emplace_back(local.empty() ? std::vector<double>{1.0} : local);
  }
}

void WeightedRandomWalk::step(Rng& rng) {
  exit_degree();
  cross(graph().slot(current(), tables_[current()].sample(rng)));
}

}  // namespace ewalk
