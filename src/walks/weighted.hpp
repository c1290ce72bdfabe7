// Reversible weighted random walk (Section 2.2 of the paper).
//
// Transition probability p(x,y) = w(x,y) / Σ_z w(x,z). Theorem 5 proves the
// Ω(n log n) cover-time lower bound for *every* such walk; the bench uses
// this class to show that no edge re-weighting escapes the lower bound the
// E-process beats. Per-vertex alias tables give O(1) transitions.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/process.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace ewalk {

/// Walker's alias method over a fixed discrete distribution.
class AliasTable {
 public:
  AliasTable() = default;
  /// Builds from non-negative weights with a positive sum.
  explicit AliasTable(const std::vector<double>& weights);

  /// Samples an index with probability proportional to its weight.
  std::uint32_t sample(Rng& rng) const;

  std::size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

class WeightedRandomWalk final : public SingleWalk {
 public:
  /// `edge_weights` has one positive weight per edge id.
  WeightedRandomWalk(const Graph& g, Vertex start,
                     const std::vector<double>& edge_weights);

  void step(Rng& rng) override;

  /// Stationary probability of v: w(v) / Σ_u w(u), w(v) = Σ incident weights.
  double stationary_probability(Vertex v) const {
    return vertex_weight_[v] / total_weight_;
  }

 private:
  std::vector<AliasTable> tables_;       // one per vertex, over its slots
  std::vector<double> vertex_weight_;
  double total_weight_ = 0.0;
};

}  // namespace ewalk
