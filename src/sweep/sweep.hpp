// Parameter-sweep driver: the one scheduler every figure-scale experiment
// runs through.
//
// A sweep is a grid of SweepPoints (e.g. Figure 1's degree × size grid);
// each point names a graph factory and one or more measured series (process
// + cover target). Each (point, trial) unit builds one graph and runs every
// series of the point on it — the head-to-head comparison (SRW vs E-process
// on the *same* instance) Figure-1 style plots want, at one generation per
// trial however many series the point has. A series' trials run through
// TrialTarget::run (covertime/experiment.hpp), the bundle runner every
// harness shares. run_sweep submits one task per point to the work-stealing
// Executor — largest expected cost first, so the big-n point starts first
// instead of last — and each point task fans its (point, trial) units out as
// nested TaskScope subtasks (and a multi-series unit fans its series out one
// level deeper). Parallelism therefore spans the whole grid AND the trials
// inside one point: the straggler point no longer bounds sweep wall-clock
// 1:1. Each unit records which scheduler thread ran it and when, and
// run_sweep aggregates those spans into a per-thread throughput-over-time
// timeline (SWEEP schema v3), following pop_setbench's measurement
// discipline.
//
// Trial counts are either fixed (SweepConfig::max_trials == 0: every series
// runs exactly `trials` trials, the historical behaviour) or adaptive
// (max_trials > 0: every series runs at least `trials` trials — the floor —
// and keeps accruing trials in barrier-synchronised rounds until its 95% CI
// half-width falls to ci_rel_target of its mean or the max_trials cap is
// hit). Adaptive stopping decisions are made only at per-point round
// barriers (a nested scope wait), from completed samples only, so they are
// a pure function of the sample values — and since each point's round
// sequence never depended on other points, the per-point barriers produce
// exactly the trial schedule the old global barrier did.
//
// Determinism: every rng used by a unit is derived by sweep_stream() as a
// pure function of (master_seed, point index, trial index, role), never of
// thread identity, scheduling order, or the adaptive state. Sweep samples
// are therefore bit-identical across --threads 1 / 4 / hardware, and any
// common trial prefix is bit-identical between fixed and adaptive runs
// (pinned by tests/sweep_test.cpp); only the wall-clock fields vary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "covertime/experiment.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ewalk {

/// One measured series at a sweep point: a named process driven to a cover
/// target on the point's graph.
struct SweepSeriesSpec {
  std::string name;                              ///< series key, e.g. "eprocess"
  ProcessFactory process;                        ///< fresh process per trial
  CoverTarget target = CoverTarget::kVertices;   ///< what the trial measures
};

/// One machine-readable coordinate of a sweep point, e.g. {"n", 100000}.
struct SweepParam {
  std::string name;   ///< coordinate name (column key in SWEEP_*.json)
  double value;       ///< coordinate value
};

/// One point of the parameter grid: a graph family instantiation plus the
/// series measured on it.
struct SweepPoint {
  std::string label;                    ///< human-readable point id, e.g. "d3-n100000"
  std::vector<SweepParam> params;       ///< machine-readable coordinates
  GraphFactory graph;                   ///< fresh graph per trial, shared by the series
  std::vector<SweepSeriesSpec> series;  ///< processes measured on this point
  std::uint64_t max_steps = 0;          ///< 0 = default_step_budget(g)
};

/// Sweep-wide execution configuration.
struct SweepConfig {
  std::uint32_t trials = 5;       ///< trials per point — the floor in adaptive mode (the paper used 5)
  std::uint32_t threads = 0;      ///< parallelism cap; 0 = hardware concurrency
  std::uint64_t master_seed = 1;  ///< root of every derived stream
  /// Adaptive-trials cap: 0 keeps the fixed `trials`-per-series behaviour;
  /// > 0 lets each (point, series) accrue trials past the `trials` floor —
  /// in deterministic barrier rounds — until its CI is narrow enough (see
  /// ci_rel_target) or this cap is reached. Clamped up to `trials`.
  std::uint32_t max_trials = 0;
  /// Adaptive stopping target: a series closes once its 95% CI half-width
  /// is <= this fraction of |mean| (and the floor is met). Only consulted
  /// when max_trials > 0.
  double ci_rel_target = 0.05;
  /// Trials interleaved per scheduler unit (engine/bundle.hpp): <= 1 keeps
  /// the historical one-(point, trial)-unit schedule; W > 1 packs each
  /// adaptive round's trials into bundles of W consecutive trials advanced
  /// round-robin in one loop, hiding DRAM latency on paper-range graphs.
  /// The internal trial order is fixed (ascending) and every trial keeps
  /// its own sweep_stream rngs and its sequential check schedule, so all
  /// samples are bit-identical across bundle widths AND thread counts;
  /// only wall-clock bookkeeping (unit spread, timeline) reflects the
  /// bundling.
  std::uint32_t bundle_width = 1;
};

/// Aggregate of one series at one point.
struct SweepSeriesResult {
  std::string name;                      ///< series key
  SummaryStats stats;                    ///< over the per-trial samples
  std::vector<double> samples;           ///< one per trial run, trial order
  std::uint32_t uncovered_trials = 0;    ///< trials clamped to the budget
  std::uint32_t trials_used = 0;         ///< trials actually run (== samples.size())
  double ci_rel_width = 0.0;             ///< final 95% CI half-width / |mean| (0 when mean is 0)
  double walk_seconds = 0.0;             ///< walk wall time incl. process builds, summed over bundles
};

/// All series results at one point.
struct SweepPointResult {
  std::string label;                     ///< the point's label
  std::vector<SweepParam> params;        ///< the point's coordinates
  std::vector<SweepSeriesResult> series; ///< one entry per SweepSeriesSpec
  double gen_seconds = 0.0;              ///< graph construction wall time, summed over trials
};

/// Activity of one scheduler thread over the sweep's wall clock, bucketed
/// into fixed-width intervals: how long the thread spent doing sweep work
/// (generation + walking) in each bucket, and how many series measurements
/// it completed there. Threads that never touched the sweep are omitted.
struct SweepThreadTimeline {
  std::uint32_t thread = 0;          ///< Executor::timing_slot of the thread
  std::vector<double> busy_seconds;  ///< busy time per bucket
  std::vector<std::uint64_t> units;  ///< series completions per bucket
};

/// The complete sweep, including the generation-vs-walk wall-clock split
/// (the number that tells whether graph construction dominates a sweep)
/// and the per-thread timeline the v3 report serialises.
struct SweepResult {
  std::string name;                    ///< sweep name (file stem of SWEEP_<name>.json)
  std::uint64_t master_seed = 0;       ///< seed the streams were derived from
  std::uint32_t trials = 0;            ///< trials floor per point
  std::uint32_t max_trials = 0;        ///< adaptive cap as configured (0 = fixed trials)
  double ci_rel_target = 0.0;          ///< adaptive CI target (0 when fixed)
  std::uint32_t threads = 0;           ///< configured parallelism (0 = hardware)
  double gen_seconds = 0.0;            ///< total graph-generation wall time (CPU-side, summed over tasks)
  double walk_seconds = 0.0;           ///< total walk wall time incl. process builds (summed over tasks)
  double wall_seconds = 0.0;           ///< elapsed wall time of the whole sweep
  bool pinned = false;                 ///< worker affinity pinning was active
  std::uint32_t unit_count = 0;        ///< (point, trial) units executed
  double unit_seconds_min = 0.0;       ///< fastest unit's wall-clock span
  double unit_seconds_max = 0.0;       ///< slowest unit's wall-clock span
  double timeline_bucket_seconds = 0.0;///< width of one timeline bucket
  std::vector<SweepThreadTimeline> thread_timeline; ///< per-thread activity, thread order
  std::vector<SweepPointResult> points;///< one entry per SweepPoint, point order
};

/// Derives the rng stream for (point, trial, role) from the master seed —
/// a pure function of its arguments, so neither the pool thread a unit runs
/// on nor the adaptive trial count can ever change a sample. Roles: 0 = the
/// per-(point, trial) graph stream; 2s+1 = the walk stream of series s
/// (its process's construction-time draws, then the walk).
Rng sweep_stream(std::uint64_t master_seed, std::uint64_t point,
                 std::uint64_t trial, std::uint64_t role);

/// Runs the sweep on the work-stealing Executor: one task per point,
/// submitted largest-expected-cost-first, each fanning its trials (and a
/// multi-series unit its series) out as nested subtasks; the calling
/// thread participates, and threads <= 1 runs everything inline. Trials
/// that fail to reach their target within the step budget contribute the
/// budget as their sample and are counted in uncovered_trials. With
/// SweepConfig::max_trials > 0 trials are scheduled in adaptive per-point
/// rounds — closed series stop consuming trials while the rest of their
/// point keeps going — otherwise every series runs exactly
/// SweepConfig::trials trials.
SweepResult run_sweep(const std::string& name,
                      const std::vector<SweepPoint>& points,
                      const SweepConfig& config);

}  // namespace ewalk
