#include "covertime/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "engine/budget.hpp"
#include "util/thread_pool.hpp"

namespace ewalk {

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

std::vector<TrialOutcome> TrialTarget::run(std::span<Rng> streams,
                                           std::uint64_t max_steps,
                                           const TrialBuilder& build) const {
  std::vector<TrialSetup> setups;
  setups.reserve(streams.size());
  std::vector<BundleTrial> bundle;
  bundle.reserve(streams.size());
  std::vector<TrialOutcome> outcomes(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    setups.push_back(build(streams[i]));
    WalkProcess& process = *setups.back().process;
    check(dynamic_cast<const TokenProcess*>(&process) != nullptr
              ? ProcessKind::kToken
              : ProcessKind::kWalk);
    outcomes[i].budget =
        max_steps != 0 ? max_steps : default_step_budget(process.graph());
    bundle.push_back(BundleTrial{&process, &streams[i], outcomes[i].budget, 1});
  }
  const std::vector<std::uint8_t> finished = drive(bundle);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const WalkProcess& process = *setups[i].process;
    TrialOutcome& out = outcomes[i];
    out.unreachable = kind_ == RunTarget::kCoalescence &&
                      static_cast<const TokenProcess&>(process).token_floor() > tokens_;
    out.done = finished[i] != 0 && !out.unreachable;
    out.result_step = result_step(process);
    out.steps = process.steps();
    out.first_meeting = first_meeting(process);
  }
  return outcomes;
}

std::vector<std::uint8_t> TrialTarget::drive(
    std::span<const BundleTrial> trials) const {
  switch (kind_) {
    case RunTarget::kEdges:
      return run_trial_bundle(trials, [](const WalkProcess& p) {
        return p.cover().all_edges_covered();
      });
    case RunTarget::kCoalescence:
      return run_trial_bundle(trials, [k = tokens_](const WalkProcess& p) {
        // Above the target, tokens_remaining() == token_floor() means every
        // token sits alone in a component of a final graph: nothing can
        // merge or meet any more.
        const auto& tokens = static_cast<const TokenProcess&>(p);
        return tokens.tokens_remaining() <= std::max(k, tokens.token_floor());
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

  const auto run_bundle = [&](std::uint32_t lo, std::uint32_t hi) {
    const std::vector<TrialOutcome> bundle = target.run(
        std::span(streams).subspan(lo, hi - lo), req.max_steps, build);
    std::copy(bundle.begin(), bundle.end(), outcomes.begin() + lo);
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
