// Interleaved trial bundles: latency hiding for the walk hot path.
//
// A single walk trial is a serial pointer chase over the CSR: every step
// loads the adjacency row of a (pseudo)random vertex, and once the graph
// stops fitting in LLC (n ~ 1e6) each of those loads is a dependent DRAM
// miss — the core sits idle for the full memory latency because step t+1
// cannot start before step t's row arrives. Interleaving B *independent*
// trials round-robin on one core breaks the dependence chain: while trial
// i's row is in flight, the B-1 other trials issue their own loads, so the
// memory system serves several misses concurrently (MLP) instead of one at
// a time. A software prefetch for each trial's NEXT position, issued right
// after its step commits, has a full round (B-1 other steps) to complete
// before the trial needs the data.
//
// Determinism contract: each BundleTrial carries its own private Rng — the
// exact per-trial stream the sequential drivers derive (derive_streams,
// sweep_stream) — and the bundle draws nothing of its own. A trial's
// trajectory is therefore a pure function of its stream, and
// run_trial_bundle reproduces run_until_process's check schedule per trial
// exactly (predicate checked before the budget, every `check_stride`
// transitions and at the budget), so every trial's stopping step, cover
// step, and final rng state are bit-identical to running the trials one
// after another. Bundling changes wall-clock only — pinned by
// tests/bundle_test.cpp and the sweep/covertime width-invariance tests.
//
// This is the one trial kernel: every harness trial (run_target_trials in
// covertime/experiment.hpp, the sweep's units) reaches its target here. A
// width-1 run is a bundle of one, and the single-live loop in drive_bundle
// steps it without per-round bookkeeping.
//
// Devirtualisation: bundles whose processes are all SimpleRandomWalk or all
// EProcessHandle (the hot cases) run a typed loop whose step, current and
// prefetch calls resolve statically (the classes are final); every other
// bundle, multi-walker and token processes included, runs the generic loop
// with one virtual dispatch per step, still gaining the miss overlap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/adapters.hpp"
#include "engine/process.hpp"
#include "util/rng.hpp"
#include "walks/srw.hpp"

namespace ewalk {

/// One trial of an interleaved bundle: a borrowed process, its private rng
/// stream, and the stopping parameters run_until_process would have used.
/// The caller owns process and rng; both must outlive run_trial_bundle.
struct BundleTrial {
  WalkProcess* process = nullptr;  ///< the walk to advance (borrowed)
  Rng* rng = nullptr;              ///< the trial's private stream (borrowed)
  std::uint64_t max_steps = 0;     ///< lifetime step budget (as run_until_process)
  std::uint64_t check_stride = 1;  ///< predicate check period (0 treated as 1)
};

/// Internal bookkeeping of run_trial_bundle. Exposed in the header only
/// because the driver is a template; not part of the engine API.
namespace bundle_detail {

/// Per-trial loop state of a live (not yet retired) bundled trial.
struct LiveTrial {
  WalkProcess* process;      ///< the walk being advanced
  Rng* rng;                  ///< its private stream
  std::uint64_t steps;       ///< transitions made so far (mirror of process->steps())
  std::uint64_t max_steps;   ///< lifetime budget
  std::uint64_t stride;      ///< predicate check period (>= 1)
  std::uint64_t next_check;  ///< step count at which the predicate is next evaluated
  std::size_t index;         ///< position in the caller's trials span
};

/// The software-pipelined round-robin loop: one step of every live trial
/// per round (stepping + prefetch via `step_one`, which is where the typed
/// fast paths plug in), with retired trials compacted out in place — the
/// relative order of survivors is preserved, so the interleave pattern is
/// deterministic. Predicate checks replay run_until_process's schedule per
/// trial: at every `stride` transitions and at the budget, predicate before
/// budget. Once a single trial is live (a bundle of one, or the last
/// survivor of a wider bundle) it runs in a tight loop with no per-round
/// compaction; its check schedule is the same.
template <typename Predicate, typename StepFn>
void drive_bundle(std::vector<LiveTrial>& live,
                  std::vector<std::uint8_t>& finished,
                  const Predicate& predicate, const StepFn& step_one) {
  // One transition of `t` plus its scheduled check; true once t retires.
  const auto advance = [&](LiveTrial& t) {
    step_one(t);
    ++t.steps;
    if (t.steps < t.next_check) return false;
    if (predicate(*t.process)) {
      finished[t.index] = 1;
      return true;
    }
    if (t.steps >= t.max_steps) return true;
    t.next_check = t.steps + std::min(t.stride, t.max_steps - t.steps);
    return false;
  };
  while (live.size() > 1) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      LiveTrial t = live[i];
      if (!advance(t)) live[keep++] = t;
    }
    live.resize(keep);
  }
  if (live.empty()) return;
  LiveTrial last = live.front();
  while (!advance(last)) {
  }
  live.clear();
}

}  // namespace bundle_detail

/// Advances every trial round-robin in one interleaved loop until each
/// trial's `predicate(process)` holds or its `max_steps` budget is spent,
/// issuing the next-position prefetch for each trial while the others step.
/// Per trial this is exactly run_until_process: the predicate (a callable
/// over `const WalkProcess&`) is evaluated before the budget, every
/// `check_stride` transitions and at the budget, and each transition draws
/// only from the trial's own rng — so stopping steps, trajectories, and rng
/// states are bit-identical to sequential execution in any order. Returns
/// one flag per trial (trial order): 1 iff the predicate held on exit.
/// Homogeneous SRW / EProcessHandle bundles take a devirtualised fast path;
/// all others run the generic virtual loop.
template <typename Predicate>
std::vector<std::uint8_t> run_trial_bundle(std::span<const BundleTrial> trials,
                                           const Predicate& predicate) {
  using bundle_detail::LiveTrial;
  std::vector<std::uint8_t> finished(trials.size(), 0);
  std::vector<LiveTrial> live;
  live.reserve(trials.size());

  bool all_srw = !trials.empty();
  bool all_eprocess = !trials.empty();
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const BundleTrial& trial = trials[i];
    // Entry check: run_until_process tests the predicate (then the budget)
    // before the first transition, so an already-satisfied or zero-budget
    // trial never steps.
    if (predicate(*trial.process)) {
      finished[i] = 1;
      continue;
    }
    const std::uint64_t steps = trial.process->steps();
    if (steps >= trial.max_steps) continue;
    const std::uint64_t stride = std::max<std::uint64_t>(1, trial.check_stride);
    live.push_back(LiveTrial{
        trial.process, trial.rng, steps, trial.max_steps, stride,
        steps + std::min(stride, trial.max_steps - steps), i});
    all_srw = all_srw && dynamic_cast<SimpleRandomWalk*>(trial.process) != nullptr;
    all_eprocess =
        all_eprocess && dynamic_cast<EProcessHandle*>(trial.process) != nullptr;
  }

  if (live.empty()) return finished;

  if (all_srw) {
    bundle_detail::drive_bundle(live, finished, predicate, [](LiveTrial& t) {
      auto* walk = static_cast<SimpleRandomWalk*>(t.process);
      walk->step(*t.rng);  // final class: resolves statically
      walk->graph().prefetch_hint(walk->current());
    });
  } else if (all_eprocess) {
    bundle_detail::drive_bundle(live, finished, predicate, [](LiveTrial& t) {
      EProcess& walk = static_cast<EProcessHandle*>(t.process)->walk();
      walk.step(*t.rng);  // concrete EProcess::step, non-virtual
      walk.prefetch_hint(walk.current());
    });
  } else {
    bundle_detail::drive_bundle(live, finished, predicate, [](LiveTrial& t) {
      t.process->step(*t.rng);
      t.process->graph().prefetch_hint(t.process->current());
    });
  }
  return finished;
}

}  // namespace ewalk
