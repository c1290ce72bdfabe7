#include "covertime/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "engine/budget.hpp"
#include "util/thread_pool.hpp"

namespace ewalk {

std::vector<double> run_trials(std::uint32_t count, std::uint32_t threads,
                               std::uint64_t master_seed,
                               const std::function<double(Rng&, std::uint32_t)>& fn) {
  std::vector<Rng> streams = derive_streams(master_seed, count);
  std::vector<double> results(count, 0.0);

  std::uint32_t workers = threads == 0 ? Executor::hardware_threads() : threads;
  workers = std::min(workers, count == 0 ? 1u : count);

  if (workers <= 1) {
    for (std::uint32_t i = 0; i < count; ++i) results[i] = fn(streams[i], i);
    return results;
  }

  // One trial per scheduler task. Trial i's stream is a pure function of
  // (master_seed, i), so which thread steals it cannot affect the result;
  // the scope cap keeps at most `workers` threads on this call.
  TaskScope scope(workers);
  for (std::uint32_t i = 0; i < count; ++i)
    scope.spawn([&results, &streams, &fn, i] { results[i] = fn(streams[i], i); });
  scope.wait();
  return results;
}

SummaryStats run_trials_summary(std::uint32_t count, std::uint32_t threads,
                                std::uint64_t master_seed,
                                const std::function<double(Rng&, std::uint32_t)>& fn) {
  const auto samples = run_trials(count, threads, master_seed, fn);
  return summarize(samples);
}

TrialTarget::TrialTarget(CoverTarget cover)
    : kind_(cover == CoverTarget::kEdges ? RunTarget::kEdges
                                         : RunTarget::kVertices) {}

TrialTarget::TrialTarget(RunTarget target, std::uint32_t tokens)
    : kind_(target), tokens_(tokens) {
  if (target == RunTarget::kAuto)
    throw std::invalid_argument("TrialTarget: resolve RunTarget::kAuto first");
}

void TrialTarget::check(ProcessKind kind) const {
  if (kind_ == RunTarget::kCoalescence && kind != ProcessKind::kToken)
    throw std::invalid_argument(
        "--target coalescence needs an interacting-token process");
}

std::vector<std::uint8_t> TrialTarget::run(
    std::span<const BundleTrial> trials) const {
  switch (kind_) {
    case RunTarget::kEdges:
      return run_trial_bundle(trials, [](const WalkProcess& p) {
        return p.cover().all_edges_covered();
      });
    case RunTarget::kCoalescence:
      return run_trial_bundle(trials, [k = tokens_](const WalkProcess& p) {
        return static_cast<const TokenProcess&>(p).tokens_remaining() <= k;
      });
    case RunTarget::kAuto:
    case RunTarget::kVertices:
      break;
  }
  return run_trial_bundle(trials, [](const WalkProcess& p) {
    return p.cover().all_vertices_covered();
  });
}

std::uint64_t TrialTarget::result_step(const WalkProcess& process) const {
  switch (kind_) {
    case RunTarget::kEdges:
      return process.cover().edge_cover_step();
    case RunTarget::kCoalescence:
      return tokens_ <= 1
                 ? static_cast<const TokenProcess&>(process).coalescence_step()
                 : process.steps();
    case RunTarget::kAuto:
    case RunTarget::kVertices:
      break;
  }
  return process.cover().vertex_cover_step();
}

std::uint64_t TrialTarget::first_meeting(const WalkProcess& process) const {
  return kind_ == RunTarget::kCoalescence
             ? static_cast<const TokenProcess&>(process).first_meeting_step()
             : kNotCovered;
}

std::vector<TrialOutcome> run_target_trials(const RunRequest& req,
                                            const TrialTarget& target,
                                            const TrialBuilder& build) {
  std::vector<Rng> streams = derive_streams(req.seed, req.trials);
  std::vector<TrialOutcome> outcomes(req.trials);
  const std::uint32_t width = std::max(1u, req.bundle_width);

  // Trials [lo, hi) as one bundle, built in ascending order from their own
  // streams; every trial is checked at every step, as run_until would.
  const auto run_bundle = [&](std::uint32_t lo, std::uint32_t hi) {
    std::vector<TrialSetup> setups;
    setups.reserve(hi - lo);
    std::vector<BundleTrial> bundle;
    bundle.reserve(hi - lo);
    for (std::uint32_t t = lo; t < hi; ++t) {
      setups.push_back(build(streams[t]));
      WalkProcess& process = *setups.back().process;
      target.check(dynamic_cast<const TokenProcess*>(&process) != nullptr
                       ? ProcessKind::kToken
                       : ProcessKind::kWalk);
      outcomes[t].budget = req.max_steps != 0
                               ? req.max_steps
                               : default_step_budget(process.graph());
      bundle.push_back(BundleTrial{&process, &streams[t], outcomes[t].budget, 1});
    }
    const std::vector<std::uint8_t> finished = target.run(bundle);
    for (std::uint32_t t = lo; t < hi; ++t) {
      const WalkProcess& process = *setups[t - lo].process;
      TrialOutcome& out = outcomes[t];
      out.done = finished[t - lo] != 0;
      out.result_step = target.result_step(process);
      out.steps = process.steps();
      out.first_meeting = target.first_meeting(process);
    }
  };

  const std::uint32_t bundles = (req.trials + width - 1) / width;
  std::uint32_t workers =
      req.threads == 0 ? Executor::hardware_threads() : req.threads;
  workers = std::min(workers, bundles);
  if (workers <= 1) {
    for (std::uint32_t lo = 0; lo < req.trials; lo += width)
      run_bundle(lo, std::min(lo + width, req.trials));
    return outcomes;
  }
  // One scheduler task per bundle; the scope cap keeps at most `workers`
  // threads on this call.
  TaskScope scope(workers);
  for (std::uint32_t lo = 0; lo < req.trials; lo += width)
    scope.spawn([&run_bundle, lo, hi = std::min(lo + width, req.trials)] {
      run_bundle(lo, hi);
    });
  scope.wait();
  return outcomes;
}

namespace {

// A fresh graph per trial from `graphs`, then the process on it, both from
// the trial's stream.
template <typename Factory>
TrialBuilder fresh_graph_trials(const Factory& processes,
                                const GraphFactory& graphs) {
  return [&processes, &graphs](Rng& rng) {
    TrialSetup setup{std::make_unique<Graph>(graphs(rng)), nullptr};
    setup.process = processes(*setup.graph, rng);
    return setup;
  };
}

}  // namespace

CoverExperimentResult measure_cover(const ProcessFactory& processes,
                                    const GraphFactory& graphs,
                                    const RunRequest& req) {
  if (req.target == RunTarget::kCoalescence)
    throw std::invalid_argument(
        "measure_cover: target coalescence needs measure_coalescence");
  const TrialTarget target(req.target == RunTarget::kEdges ? CoverTarget::kEdges
                                                           : CoverTarget::kVertices);
  CoverExperimentResult out;
  for (const TrialOutcome& trial :
       run_target_trials(req, target, fresh_graph_trials(processes, graphs))) {
    out.samples.push_back(trial.sample());
    if (!trial.done) ++out.uncovered_trials;
  }
  out.stats = summarize(out.samples);
  return out;
}

CoalescenceExperimentResult measure_coalescence(
    const TokenProcessFactory& processes, const GraphFactory& graphs,
    const RunRequest& req) {
  const TrialTarget target(RunTarget::kCoalescence, req.target_tokens);
  CoalescenceExperimentResult out;
  for (const TrialOutcome& trial :
       run_target_trials(req, target, fresh_graph_trials(processes, graphs))) {
    out.samples.push_back(trial.sample());
    out.meeting_samples.push_back(trial.meeting_sample());
    if (!trial.done) ++out.unfinished_trials;
  }
  out.stats = summarize(out.samples);
  out.meeting_stats = summarize(out.meeting_samples);
  return out;
}

}  // namespace ewalk
