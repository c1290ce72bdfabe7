// Coalescing-walk processes: tokens that merge on vertex collision.
//
// The classic coalescing random walk starts k tokens; when two occupy the
// same vertex they merge into one, and the coalescence time (population
// reaches 1) governs distributed protocols from leader election to the
// Malkhi coalescence protocol analysed by Loh–Lubetzky ("Stochastic
// coalescence in logarithmic time"). On the complete graph K_n the
// coalescence time is Θ(n) system steps (birthday-style pairwise meetings);
// on good expanders it is O(n polylog n) system steps — O(polylog n)
// parallel rounds.
//
// Two variants share the token state TokenProcess owns:
//   * CoalescingRW    — each token is an independent SRW; the baseline the
//                       meeting-time literature speaks about.
//   * CoalescingEWalk — tokens step by the paper's unvisited-edge-preference
//                       rule (any UnvisitedEdgeRule from walks/rules.hpp)
//                       over ONE shared blue/red edge colouring, falling
//                       back to an SRW step when no incident blue edge
//                       remains — the E-process analogue of coalescence,
//                       asking whether edge-preferring exploration speeds up
//                       or delays meetings.
//
// Stepping model: one step() advances one token, round-robin over the
// *alive* population (system steps, matching MultiEProcess's convention).
// A token moving onto an occupied vertex merges into the occupant: the
// mover dies, the occupant keeps its id. The surviving population keeps
// walking after coalescence — the process degenerates to a single SRW /
// E-walk, so cover predicates still terminate if that is what the caller
// drives to.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/token_process.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "walks/blue_partition.hpp"
#include "walks/eprocess.hpp"

namespace ewalk {

/// k independent simple-random-walk tokens, merging on collision.
class CoalescingRW final : public TokenProcess {
 public:
  /// Start vertices must be distinct; k = starts.size() >= 1.
  CoalescingRW(const Graph& g, std::vector<Vertex> starts);

  void step(Rng& rng) override;
};

/// k unvisited-edge-preferring tokens over one shared edge colouring,
/// merging on collision. The rule is owned (registry/experiment callers
/// hand over a fresh rule per process).
class CoalescingEWalk final : public TokenProcess {
 public:
  CoalescingEWalk(const Graph& g, std::vector<Vertex> starts,
                  std::unique_ptr<UnvisitedEdgeRule> rule);

  void step(Rng& rng) override;

  std::uint64_t blue_steps() const { return blue_steps_; }
  std::uint64_t red_steps() const { return red_steps_; }

 private:
  std::unique_ptr<UnvisitedEdgeRule> rule_;
  bool uniform_rule_;  // rule_->uniform_over_candidates(), hoisted once
  std::uint64_t blue_steps_ = 0;
  std::uint64_t red_steps_ = 0;
  BluePartition blue_;  // shared colouring, as EProcess/MultiEProcess keep it
};

}  // namespace ewalk
