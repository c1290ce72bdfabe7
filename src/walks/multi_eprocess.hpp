// Multi-walker E-process: k cooperating walkers sharing one visited-edge
// state.
//
// A natural extension the paper's framework invites (the E-process is a
// single token; distributed exploration wants several): all walkers consult
// the same blue/red edge colouring, and each step of the *system* advances
// one walker round-robin. Cover times are reported in system steps, so a
// perfect parallelisation would show cover_time(k) ≈ cover_time(1): the
// interesting question is how close cooperation gets (contention: walkers
// steal each other's blue edges; the blue-phase parity argument holds per
// walker only until another walker breaks the local parity, so this is a
// genuinely different process — measured, not analysed, here).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/process.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "walks/blue_partition.hpp"
#include "walks/cover_state.hpp"
#include "walks/eprocess.hpp"

namespace ewalk {

class MultiEProcess final : public WalkProcess {
 public:
  /// `starts` gives one start vertex per walker (k = starts.size() >= 1).
  /// The rule is owned and shared across walkers.
  MultiEProcess(const Graph& g, std::vector<Vertex> starts,
                std::unique_ptr<UnvisitedEdgeRule> rule);

  /// Advances the next walker (round-robin). Drive to a termination
  /// condition with the engine driver (engine/driver.hpp).
  void step(Rng& rng) override;

  std::uint32_t num_walkers() const { return static_cast<std::uint32_t>(positions_.size()); }
  Vertex position(std::uint32_t walker) const { return positions_[walker]; }
  /// Position of the walker about to move (the engine's notion of "current").
  Vertex current() const override { return positions_[next_walker_]; }
  const Graph& graph() const override { return *g_; }
  std::uint64_t steps() const override { return steps_; }
  const CoverState& cover() const override { return cover_; }
  std::uint64_t blue_steps() const { return blue_steps_; }
  std::uint64_t red_steps() const { return red_steps_; }
  std::uint32_t blue_degree(Vertex v) const { return blue_.blue_count(v); }

 private:
  const Graph* g_;
  std::unique_ptr<UnvisitedEdgeRule> rule_;
  bool uniform_rule_;  // rule_->uniform_over_candidates(), hoisted once
  std::vector<Vertex> positions_;
  std::uint32_t next_walker_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t blue_steps_ = 0;
  std::uint64_t red_steps_ = 0;
  CoverState cover_;
  BluePartition blue_;
};

}  // namespace ewalk
