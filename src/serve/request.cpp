#include "serve/request.hpp"

#include <numeric>
#include <stdexcept>

#include "covertime/experiment.hpp"
#include "engine/budget.hpp"
#include "engine/registry.hpp"
#include "engine/token_process.hpp"
#include "graph/algorithms.hpp"
#include "util/timer.hpp"

namespace ewalk {

RunTarget parse_run_target(const std::string& name) {
  if (name.empty() || name == "auto") return RunTarget::kAuto;
  if (name == "vertices") return RunTarget::kVertices;
  if (name == "edges") return RunTarget::kEdges;
  if (name == "coalescence") return RunTarget::kCoalescence;
  throw std::invalid_argument("bad --target: '" + name +
                              "' (want vertices, edges, or coalescence)");
}

std::string run_target_name(RunTarget target) {
  switch (target) {
    case RunTarget::kVertices: return "vertices";
    case RunTarget::kEdges: return "edges";
    case RunTarget::kCoalescence: return "coalescence";
    case RunTarget::kAuto: break;
  }
  return "auto";
}

RunRequest run_request_from_params(const ParamMap& params) {
  RunRequest req;
  req.id = params.get("id", "");
  req.graph = params.get("graph", "regular");
  req.process = params.get("process", "eprocess");
  req.params = params;
  const std::int64_t trials = params.get_int("trials", 5);
  if (trials <= 0) throw std::invalid_argument("--trials must be >= 1");
  req.trials = static_cast<std::uint32_t>(trials);
  const std::int64_t threads = params.get_int("threads", 1);
  if (threads < 0)
    throw std::invalid_argument(
        "--threads must be >= 0 (0 = all hardware threads)");
  req.threads = static_cast<std::uint32_t>(threads);
  req.seed = params.get_u64("seed", 1);
  req.max_steps = params.get_u64("max-steps", 0);
  req.target = parse_run_target(params.get("target", ""));
  req.target_tokens =
      static_cast<std::uint32_t>(params.get_u64("target-tokens", 1));
  req.bundle_width = static_cast<std::uint32_t>(params.get_u64("bundle", 1));
  req.analysis = params.get_bool("analysis", false);
  return req;
}

RunResult execute_run(const RunRequest& req, GraphStore* store) {
  RunResult out;
  out.id = req.id;
  try {
    if (req.trials == 0) throw std::invalid_argument("--trials must be >= 1");
    // Validate both registry names before touching the graph cache, so a
    // typo'd request fails fast with nearest-match suggestions and costs no
    // construction (store counters stay meaningful).
    ProcessRegistry::instance().at(req.process);
    GeneratorRegistry::instance().at(req.graph);

    std::shared_ptr<const CachedGraph> cached;
    if (store != nullptr) {
      cached = store->acquire(req.graph, req.params, req.seed,
                              &out.graph_cache_hit);
    } else {
      Rng graph_rng(req.seed);
      Graph g =
          GeneratorRegistry::instance().create(req.graph, req.params, graph_rng);
      const bool connected = is_connected(g);
      cached = std::make_shared<CachedGraph>(std::move(g), connected);
    }
    out.graph = cached;
    const Graph& g = cached->graph();

    // Resolve the target from a probe construction, exactly as the CLI did:
    // token processes default to coalescence, and a coalescence target on a
    // non-token process is rejected on this thread, not inside a worker.
    {
      Rng probe_rng(req.seed);
      auto probe =
          ProcessRegistry::instance().create(req.process, g, req.params, probe_rng);
      out.target = req.target;
      if (out.target == RunTarget::kAuto)
        out.target = dynamic_cast<TokenProcess*>(probe.get()) != nullptr
                         ? RunTarget::kCoalescence
                         : RunTarget::kVertices;
      TrialTarget(out.target, req.target_tokens).check(*probe);
    }

    // The trial phase: one registry-constructed process per trial on the
    // shared graph, driven by the one trial loop (run_target_trials) — so
    // CLI and server samples are bit-identical by construction.
    out.budget = req.max_steps != 0 ? req.max_steps : default_step_budget(g);
    // Reserved before the trials allocate: filled after they free, these
    // would otherwise split the freed trial memory, and glibc would keep it
    // fragmented across repeated runs (peak RSS grew by one process array).
    out.samples.reserve(req.trials);
    out.step_samples.reserve(req.trials);
    out.meeting_samples.reserve(req.trials);
    WallTimer timer;
    const std::vector<TrialOutcome> trials = run_target_trials(
        req, TrialTarget(out.target, req.target_tokens), [&](Rng& rng) {
          return TrialSetup{nullptr, ProcessRegistry::instance().create(
                                         req.process, g, req.params, rng)};
        });
    out.wall_seconds = timer.seconds();
    const bool coalescence = out.target == RunTarget::kCoalescence;
    for (const TrialOutcome& trial : trials) {
      out.samples.push_back(trial.sample());
      out.step_samples.push_back(static_cast<double>(trial.steps));
      if (coalescence) out.meeting_samples.push_back(trial.meeting_sample());
      if (!trial.done) ++out.unfinished;
    }
    out.stats = summarize(out.samples);
    out.total_steps = std::accumulate(out.step_samples.begin(),
                                      out.step_samples.end(), 0.0);
    if (coalescence) out.meeting_stats = summarize(out.meeting_samples);

    if (req.analysis) {
      bool hit = false;
      out.analysis = cached->analysis(&hit);
      out.analysis_cache_hit = hit;
      if (store != nullptr) store->note_analysis(hit);
    }
    out.ok = true;
  } catch (const std::exception& ex) {
    out.ok = false;
    out.error = ex.what();
  }
  return out;
}

}  // namespace ewalk
