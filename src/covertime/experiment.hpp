// Multi-trial experiment runner.
//
// The paper's Figure 1 plots the trial-mean normalised cover time (5 trials
// per point, new random graph per trial). This module provides:
//   * TrialTarget::run — the one bundle runner: every trial a harness runs
//     (here, in execute_run, in the benches, and in the sweep's series) is
//     built from its own stream and reaches its target through one
//     run_trial_bundle call (engine/bundle.hpp), width 1 being a bundle of
//     one, so results are bit-identical across widths and thread counts;
//   * run_target_trials — the request-driven trial loop: per-trial streams
//     from the request's seed, bundles fanned out on the scheduler;
//   * measure_cover — the one cover-time experiment: any WalkProcess
//     factory, any graph factory, vertex or edge target;
//   * measure_coalescence — the interacting-walker mirror of measure_cover:
//     any TokenProcess factory, driven to a token-population target,
//     reporting coalescence and first-meeting times.
//
// Configuration: every experiment is configured by the canonical
// RunRequest (serve/request.hpp) — the same struct the CLI and the ewalkd
// server construct, so every surface agrees on field names and defaults.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/bundle.hpp"
#include "engine/process.hpp"
#include "engine/token_process.hpp"
#include "graph/graph.hpp"
#include "serve/request.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ewalk {

/// What a cover-time trial should measure.
enum class CoverTarget : std::uint8_t { kVertices, kEdges };

/// Factory producing a fresh graph for each trial (Figure 1 draws a new
/// random regular graph per experiment).
using GraphFactory = std::function<Graph(Rng&)>;

/// Factory producing a fresh walk process per trial. The rng is the trial's
/// private stream — construction-time draws (e.g. a priority rule's
/// permutation) come out of the same stream the walk is then driven with.
using ProcessFactory =
    std::function<std::unique_ptr<WalkProcess>(const Graph&, Rng&)>;

// ---- The trial kernel ------------------------------------------------------

/// One trial as built from its private stream: the process to drive and,
/// when the trial draws its own graph, that graph (the process points
/// into it, so it must stay where the unique_ptr put it).
struct TrialSetup {
  std::unique_ptr<Graph> graph;          ///< the trial's own graph; null when shared
  std::unique_ptr<WalkProcess> process;  ///< the walk to drive
};

/// Builds one trial from its private stream (graph draws first, then the
/// process's construction-time draws, then the walk).
using TrialBuilder = std::function<TrialSetup(Rng&)>;

/// What one trial of TrialTarget::run did.
struct TrialOutcome {
  bool done = false;             ///< the target was reached within the budget
  std::uint64_t result_step = 0; ///< the step the target was reached (meaningful when done)
  std::uint64_t budget = 0;      ///< the trial's step budget
  std::uint64_t steps = 0;       ///< transitions made
  std::uint64_t first_meeting = kNotCovered;  ///< first meeting step (token targets)

  /// The trial's sample: the result step, or the budget when unfinished.
  double sample() const {
    return static_cast<double>(done ? result_step : budget);
  }
  /// The first-meeting sample: the meeting step, or the budget when no
  /// tokens met.
  double meeting_sample() const {
    return static_cast<double>(first_meeting != kNotCovered ? first_meeting
                                                            : budget);
  }
};

/// What a trial is driven to: vertex cover, edge cover, or a token
/// population of at most `tokens`. Its run() is the one bundle runner every
/// harness shares, and it is the one place a WalkProcess is read as a
/// TokenProcess — check() verifies the kind once per trial, so the per-step
/// predicate never casts dynamically.
class TrialTarget {
 public:
  /// Vertex or edge cover.
  explicit TrialTarget(CoverTarget cover);
  /// A resolved run target; kCoalescence stops once at most `tokens`
  /// tokens remain. kAuto throws std::invalid_argument (resolve it first).
  TrialTarget(RunTarget target, std::uint32_t tokens);

  /// Throws std::invalid_argument unless a process of `kind` can reach
  /// this target: a token target needs a TokenProcess.
  void check(ProcessKind kind) const;

  /// Runs one bundle: builds trial i from streams[i] (ascending i) through
  /// `build`, check()s it, and drives every trial to this target through
  /// one run_trial_bundle call, checked at every step, on a budget of
  /// `max_steps` (default_step_budget of the trial's graph when 0).
  /// Returns one outcome per stream, in order; a trial's trajectory depends
  /// only on its own stream, so outcomes do not depend on the bundle's
  /// width. Exceptions thrown by `build` or check() propagate.
  std::vector<TrialOutcome> run(std::span<Rng> streams, std::uint64_t max_steps,
                                const TrialBuilder& build) const;

 private:
  // Drives built trials to the target; one flag per trial, 1 iff reached.
  std::vector<std::uint8_t> drive(std::span<const BundleTrial> trials) const;
  // The step a finished trial reports: the vertex or edge cover step; for a
  // token target the coalescence step when tokens_ <= 1, else the step the
  // population reached the target (with stride-1 checks, the process's
  // step count when it stopped).
  std::uint64_t result_step(const WalkProcess& process) const;
  // First meeting step of a token target's process (kNotCovered when no
  // tokens met); kNotCovered for cover targets.
  std::uint64_t first_meeting(const WalkProcess& process) const;

  RunTarget kind_;            // kVertices, kEdges or kCoalescence
  std::uint32_t tokens_ = 1;  // population threshold of kCoalescence
};

/// The request-driven trial loop. Derives trial t's stream from
/// (req.seed, t) (derive_streams), packs consecutive trials into bundles of
/// max(1, req.bundle_width), and runs each bundle through target.run on a
/// budget of req.max_steps — one TaskScope task per bundle, with at most
/// req.threads threads (0 = hardware). Outcomes come back in trial order
/// and are bit-identical for every bundle width and thread count.
/// Exceptions thrown by `build` or check() propagate.
std::vector<TrialOutcome> run_target_trials(const RunRequest& req,
                                            const TrialTarget& target,
                                            const TrialBuilder& build);

/// Cover-time samples over `trials` fresh (graph, process) pairs. Trials
/// that fail to cover within max_steps contribute max_steps (and are
/// counted in `uncovered_trials`).
struct CoverExperimentResult {
  SummaryStats stats;               ///< cover-time samples
  std::vector<double> samples;      ///< one per trial, trial order
  std::uint32_t uncovered_trials = 0;
};

/// The one generic cover experiment: a fresh graph and process per trial,
/// driven by run_target_trials to the request's target. Consumes the
/// run-scheduling fields of `req` (trials, threads, seed, max_steps,
/// target, bundle_width); registry/protocol fields (graph, process, params,
/// id) are ignored here — factories already bound them. RunTarget::kAuto
/// resolves to vertex cover; kCoalescence is rejected (use
/// measure_coalescence).
CoverExperimentResult measure_cover(const ProcessFactory& processes,
                                    const GraphFactory& graphs,
                                    const RunRequest& req);

// ---- Coalescence experiments (interacting walkers) ------------------------

/// Factory producing a fresh interacting-token process per trial; the rng is
/// the trial's private stream, exactly as for ProcessFactory.
using TokenProcessFactory =
    std::function<std::unique_ptr<TokenProcess>(const Graph&, Rng&)>;

/// Coalescence-time samples over `trials` fresh (graph, process) pairs.
/// Trials whose population fails to reach the target within max_steps
/// contribute max_steps (and are counted in `unfinished_trials`); trials
/// where no pair of tokens ever met contribute max_steps to the meeting
/// samples likewise.
struct CoalescenceExperimentResult {
  SummaryStats stats;                    ///< step population reached target
  std::vector<double> samples;           ///< one per trial, trial order
  SummaryStats meeting_stats;            ///< first-meeting step
  std::vector<double> meeting_samples;   ///< one per trial, trial order
  std::uint32_t unfinished_trials = 0;
};

/// The interacting-walker mirror of measure_cover: a fresh graph and token
/// process per trial, driven by run_target_trials to the population
/// target. Consumes trials, threads, seed, max_steps, bundle_width and
/// target_tokens of `req`; the target enum is ignored (this experiment is
/// always a coalescence run).
CoalescenceExperimentResult measure_coalescence(
    const TokenProcessFactory& processes, const GraphFactory& graphs,
    const RunRequest& req);

}  // namespace ewalk
