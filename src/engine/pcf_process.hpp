// Engine-level processes on PCF-evolving graphs.
//
// These pair a DynamicGraph + PcfSchedule with a walker: PcfProcess wraps
// a dynamic walk as a WalkProcess, and PcfCoalescingSrw is a TokenProcess
// whose tokens step on the DynamicGraph (its cover's edge side is a 1-edge
// sentinel, since the walked edges are not the base graph's ids). So the
// whole existing harness —
// registry construction, run_until drivers, measure_cover /
// measure_coalescence, run_sweep, the ewalk CLI — drives walks on evolving
// graphs with zero special cases. The "graph" the process reports through
// graph() is the BASE graph (the potential-edge set whose edges open); the
// walker itself steps on the owned DynamicGraph, which starts empty and
// grows as the schedule plays.
//
// Time coupling: each walk step advances process time by `time_per_step`,
// then applies every PCF event up to the new time, then steps the walker.
// With time_per_step = 1/n (the registry default), one unit of PCF time
// corresponds to n walk steps — the standard walk-clock/graph-clock
// coupling for dynamic-graph cover results. The schedule is drawn from a
// child stream split off the process's construction rng, so the trajectory
// stays a pure function of (master seed, point, trial) — never of thread
// count — exactly like every static process.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "engine/process.hpp"
#include "engine/token_process.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/pcf.hpp"
#include "util/rng.hpp"
#include "walks/dynamic_walks.hpp"
#include "walks/step_core.hpp"

namespace ewalk {

/// Single-walker process on a PCF-evolving graph, templated on the dynamic
/// walk (DynamicSrw or DynamicEProcess — anything constructible from
/// (DynamicGraphView, Vertex) with the step/current/steps/cover surface).
/// Non-copyable and non-movable: the walk's view points into the owned
/// DynamicGraph member.
template <class WalkT>
class PcfProcess final : public WalkProcess {
 public:
  /// Builds the evolving environment and the walker. `base` is the
  /// potential-edge graph (borrowed; must outlive the process); the full
  /// PCF schedule is drawn from `schedule_rng` at construction, so two
  /// processes built from equal rng states replay identical evolutions.
  /// `time_per_step` (> 0) is the PCF time advanced per walk step.
  PcfProcess(const Graph& base, Vertex start, double alpha,
             double time_per_step, Rng& schedule_rng)
      : base_(&base), dyn_(base.num_vertices()),
        schedule_(base, alpha, schedule_rng),
        walk_(DynamicGraphView(dyn_), start), time_per_step_(time_per_step) {
    if (!(time_per_step > 0.0))
      throw std::invalid_argument("PcfProcess: time_per_step must be > 0");
  }

  PcfProcess(const PcfProcess&) = delete;
  PcfProcess& operator=(const PcfProcess&) = delete;

  /// Advances PCF time, applies due edge-open events, then steps the walk.
  void step(Rng& rng) override {
    time_ += time_per_step_;
    schedule_.advance_to(time_, dyn_);
    walk_.step(rng);
  }

  /// Vertex the walker currently occupies.
  Vertex current() const override { return walk_.current(); }
  /// Walk transitions made so far.
  std::uint64_t steps() const override { return walk_.steps(); }
  /// Vertex-cover bookkeeping of the dynamic walk.
  const CoverState& cover() const override { return walk_.cover(); }
  /// The BASE graph (potential-edge set), not the evolving one.
  const Graph& graph() const override { return *base_; }

 private:
  const Graph* base_;
  DynamicGraph dyn_;
  PcfSchedule schedule_;
  WalkT walk_;
  double time_per_step_;
  double time_ = 0.0;
};

/// K coalescing SRW tokens on a PCF-evolving graph: the dynamic analogue of
/// CoalescingRW. One step() advances PCF time, then moves one token
/// (round-robin over the alive population); a token at an isolated vertex
/// holds for its turn. Tokens merge on vertex collision (mover dies).
/// Freezing can strand tokens in different components, which never meet:
/// once the schedule is exhausted the graph is final, and token_floor()
/// becomes the number of its components that hold tokens.
class PcfCoalescingSrw final : public TokenProcess {
 public:
  /// `base` is the potential-edge graph (borrowed); start vertices must be
  /// distinct. The schedule is drawn from `schedule_rng` at construction;
  /// `time_per_step` (> 0) is the PCF time advanced per token move.
  PcfCoalescingSrw(const Graph& base, std::vector<Vertex> starts, double alpha,
                   double time_per_step, Rng& schedule_rng);

  PcfCoalescingSrw(const PcfCoalescingSrw&) = delete;
  PcfCoalescingSrw& operator=(const PcfCoalescingSrw&) = delete;

  /// Advances PCF time, then moves (or holds) the next alive token.
  void step(Rng& rng) override;

  /// Steps spent holding at isolated vertices (across all tokens).
  std::uint64_t holds() const { return holds_; }

 private:
  DynamicGraph dyn_;
  PcfSchedule schedule_;
  DynamicGraphView view_;
  std::uint64_t holds_ = 0;
  double time_per_step_;
  double time_ = 0.0;
  bool settled_ = false;  // token_floor_ counted on the final graph
};

}  // namespace ewalk
