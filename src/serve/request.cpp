#include "serve/request.hpp"

#include <numeric>
#include <stdexcept>

#include "covertime/experiment.hpp"
#include "engine/budget.hpp"
#include "engine/registry.hpp"
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

RunTarget resolve_run_target(RunTarget target, const ProcessEntry& process) {
  if (target != RunTarget::kAuto) return target;
  return process.kind == ProcessKind::kToken ? RunTarget::kCoalescence
                                             : RunTarget::kVertices;
}

const ParamSchema& run_schema() {
  static const ParamSchema schema = [] {
    using std::to_string;
    const RunRequest d;
    return ParamSchema{
        {"id", ParamType::kString, d.id, {}, "request tag echoed in responses"},
        {"graph", ParamType::kString, d.graph, {}, "graph family", "generator"},
        {"process", ParamType::kString, d.process, {}, "walk process", "walk"},
        {"trials", ParamType::kU32, to_string(d.trials), {1.0}, "samples to draw"},
        {"threads", ParamType::kU32, to_string(d.threads), {},
         "parallelism (0 = all hardware threads; more are clamped)"},
        {"seed", ParamType::kU64, to_string(d.seed), {}, "master seed"},
        {"max-steps", ParamType::kU64, to_string(d.max_steps), {},
         "per-trial step budget (0 = default_step_budget(g))"},
        {"target", ParamType::kString, run_target_name(d.target), {},
         "vertices|edges|coalescence (auto = coalescence for token processes)"},
        {"target-tokens", ParamType::kU32, to_string(d.target_tokens), {},
         "coalescence: stop at <= this many tokens"},
        {"bundle", ParamType::kU32, to_string(d.bundle_width), {},
         "trials interleaved per task to hide DRAM latency (same samples)"},
        {"analysis", ParamType::kBool, d.analysis ? "true" : "false", {},
         "add the cached spectral/girth analysis block"},
    };
  }();
  return schema;
}

RunRequest run_request_from_params(const ParamMap& bag, const ParamSchema& extra) {
  ParamMap params = bag;
  for (const ParamSpec& spec : run_schema()) {
    if (spec.alias.empty() || !params.has(spec.alias)) continue;
    const std::string value = params.get(spec.alias);
    if (params.has(spec.name) && params.get(spec.name) != value)
      throw std::invalid_argument(
          "--" + spec.alias + " is a synonym of --" + spec.name +
          ", but both were given with different values ('" + value + "' vs '" +
          params.get(spec.name) + "')");
    params.set(spec.name, value);
    params.erase(spec.alias);
  }

  RunRequest req;
  req.graph = params.get("graph", req.graph);
  req.process = params.get("process", req.process);
  // With both names known, so is the whole key set: every key must be a
  // run field, one of the caller's `extra` keys, or a parameter the family
  // or the process declares. An unknown name is left to execute_run.
  if (GeneratorRegistry::instance().contains(req.graph) &&
      ProcessRegistry::instance().contains(req.process)) {
    const ParamSchema graph_schema =
        GeneratorRegistry::instance().schema(req.graph, params);
    params.check({&run_schema(), &extra, &graph_schema,
                  &ProcessRegistry::instance().at(req.process).params});
  }

  req.id = params.get("id", req.id);
  req.trials = static_cast<std::uint32_t>(params.get_u64("trials", req.trials));
  req.threads = static_cast<std::uint32_t>(params.get_u64("threads", req.threads));
  req.seed = params.get_u64("seed", req.seed);
  req.max_steps = params.get_u64("max-steps", req.max_steps);
  req.target = parse_run_target(params.get("target", run_target_name(req.target)));
  req.target_tokens = static_cast<std::uint32_t>(
      params.get_u64("target-tokens", req.target_tokens));
  req.bundle_width =
      static_cast<std::uint32_t>(params.get_u64("bundle", req.bundle_width));
  req.analysis = params.get_bool("analysis", req.analysis);
  // What remains are the family's and the process's parameters.
  for (const ParamSchema* schema : {&run_schema(), &extra})
    for (const ParamSpec& spec : *schema) params.erase(spec.name);
  req.params = std::move(params);
  return req;
}

RunResult execute_run(const RunRequest& req, GraphStore* store) {
  RunResult out;
  out.id = req.id;
  try {
    // Validate both names and every parameter before touching the graph
    // cache, so a bad request fails fast with nearest-match suggestions
    // and costs no construction (store counters stay meaningful).
    const ProcessEntry& process = ProcessRegistry::instance().at(req.process);
    const ParamSchema graph_schema =
        GeneratorRegistry::instance().schema(req.graph, req.params);
    req.params.check({&graph_schema, &process.params});

    // The declared kind resolves the target: token processes default to
    // coalescence, and a coalescence target on a walk is rejected here,
    // before any graph or trial is built.
    out.target = resolve_run_target(req.target, process);
    const TrialTarget target(out.target, req.target_tokens);
    target.check(process.kind);

    const std::shared_ptr<const CachedGraph> cached =
        store != nullptr
            ? store->acquire(req.graph, req.params, req.seed, &out.graph_cache_hit)
            : build_cached_graph(req.graph, req.params, req.seed);
    out.graph = cached;
    const Graph& g = cached->graph();

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
    const std::vector<TrialOutcome> trials =
        run_target_trials(req, target, [&](Rng& rng) {
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
