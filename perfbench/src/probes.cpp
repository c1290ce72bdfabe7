// Per-layer probes of the traced run: each times calls into one layer's
// public functions on the workload's own graph and records a span per call.
#include <algorithm>
#include <memory>
#include <span>

#include "covertime/experiment.hpp"
#include "engine/adapters.hpp"
#include "engine/bundle.hpp"
#include "engine/driver.hpp"
#include "engine/registry.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "walks/rules.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ewalk;

namespace {

// Steps per second of `width` walks of `process` interleaved through
// run_trial_bundle, each with the same per-walk budget (as bench_throughput
// does), so per-step work is the same at every width.
double bundle_steps_per_s(const Graph& g, const std::string& process,
                          std::uint32_t width, std::uint64_t per_walk,
                          std::uint64_t seed) {
  std::vector<Rng> streams = derive_streams(seed * 9176 + width, width);
  std::vector<std::unique_ptr<WalkProcess>> walks;
  std::vector<BundleTrial> bundle(width);
  for (std::uint32_t i = 0; i < width; ++i) {
    walks.push_back(
        ProcessRegistry::instance().create(process, g, ParamMap{}, streams[i]));
    bundle[i] = BundleTrial{walks.back().get(), &streams[i], per_walk, 4096};
  }
  const std::int64_t t0 = now_ns();
  {
    Span span("kernel.run_trial_bundle", Tracer::instance().next_id());
    run_trial_bundle(std::span<const BundleTrial>(bundle),
                     [](const WalkProcess&) { return false; });
  }
  const double secs = seconds_since(t0);
  std::uint64_t steps = 0;
  for (const auto& w : walks) steps += w->steps();
  return static_cast<double>(steps) / secs;
}

struct RawTrials {
  double seconds = 0.0;
  std::vector<double> samples;  // cover step, or the budget when unfinished
  std::vector<double> steps;    // transitions made
};

// The bare kernel on the harness's trials: registry construction and
// run_until per trial, one after another, on the given streams.
RawTrials raw_trials(const Graph& g, const RunRequest& req,
                     std::vector<Rng> streams) {
  RawTrials out;
  Span span("kernel.raw_trials", Tracer::instance().next_id());
  const std::int64_t t0 = now_ns();
  for (Rng& rng : streams) {
    auto walk = ProcessRegistry::instance().create(req.process, g, req.params, rng);
    const bool done = run_until(*walk, rng, VertexCovered{}, req.max_steps);
    out.samples.push_back(static_cast<double>(
        done ? walk->cover().vertex_cover_step() : req.max_steps));
    out.steps.push_back(static_cast<double>(walk->steps()));
  }
  out.seconds = seconds_since(t0);
  return out;
}

// executor.spawn_wait_us: one empty TaskScope spawn + wait.
void probe_executor(Outcome& out, bool smoke) {
  const int iterations = smoke ? 200 : 20000;
  TaskScope scope;
  Span span("executor.spawn_wait", Tracer::instance().next_id());
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < iterations; ++i) {
    scope.spawn([] {});
    scope.wait();
  }
  out.metric("executor.spawn_wait_us", seconds_since(t0) * 1e6 / iterations,
             "us");
}

}  // namespace

void probe_graph(Outcome& out, const GraphSpec& spec) {
  const std::uint64_t request = Tracer::instance().next_id();
  Rng rng(spec.seed);
  std::int64_t t0 = now_ns();
  Graph g = [&] {
    Span span("graph.generate", request);
    return GeneratorRegistry::instance().create(spec.generator, spec.params, rng);
  }();
  const double gen_s = seconds_since(t0);
  t0 = now_ns();
  bool connected = false;
  {
    Span span("graph.connectivity", request);
    connected = is_connected(g);
  }
  const double connectivity_s = seconds_since(t0);
  const double edges = static_cast<double>(g.num_edges());
  const CachedGraph cached(std::move(g), connected);
  out.operation(connected, "probe graph " + spec.label + " is not connected");
  out.metric("graph.gen_s", gen_s, "s");
  out.metric("graph.gen_edges_per_s", edges / gen_s, "1/s");
  out.metric("graph.connectivity_s", connectivity_s, "s");
  out.metric("graph.csr_bytes", static_cast<double>(cached.bytes()), "bytes");
}

void probe_kernel(Outcome& out, const Graph& g, std::uint64_t seed,
                  bool smoke) {
  const std::uint64_t per_walk = smoke ? 20000 : 400000;
  for (const std::uint32_t w : {1u, 4u, 8u, 16u})
    out.metric("kernel.srw.w" + std::to_string(w) + ".steps_per_s",
               bundle_steps_per_s(g, "srw", w, per_walk, seed), "1/s");
  // Widths 8 and 16 of the E-process are left out: on the large-cover graph
  // they would hold 8 or 16 E-process states (~60 bytes per vertex each).
  for (const std::uint32_t w : {1u, 4u})
    out.metric("kernel.eprocess.w" + std::to_string(w) + ".steps_per_s",
               bundle_steps_per_s(g, "eprocess", w, per_walk, seed), "1/s");

  {
    Rng rng(seed);
    const Graph cached = GeneratorRegistry::instance().create(
        "regular-pairing", {{"n", smoke ? "2000" : "100000"}, {"r", "4"}}, rng);
    const std::uint64_t budget = smoke ? 50000 : 4000000;
    for (const char* process : {"srw", "eprocess"})
      out.metric(std::string("kernel.") + process + ".cached.steps_per_s",
                 bundle_steps_per_s(cached, process, 1, budget, seed), "1/s");
  }

  std::vector<double> create_s;
  for (int rep = 0; rep < 3; ++rep) {
    Rng rng(seed);
    const std::int64_t t0 = now_ns();
    {
      Span span("kernel.process_create", Tracer::instance().next_id());
      auto walk = ProcessRegistry::instance().create("eprocess", g, ParamMap{}, rng);
      create_s.push_back(seconds_since(t0));
    }
  }
  out.metric("kernel.process_create_s", median(create_s), "s");
}

void probe_harness(Outcome& out, GraphStore& store, const RunRequest& req,
                   bool smoke) {
  const std::shared_ptr<const CachedGraph> cached =
      store.acquire(req.graph, req.params, req.seed);
  const Graph& g = cached->graph();
  RunRequest r = req;
  r.trials = g.num_vertices() > 1000000 ? 2 : 4;
  r.threads = 1;
  r.max_steps = smoke ? 20000 : 500000;
  r.target = RunTarget::kVertices;
  r.analysis = false;

  // execute_run and measure_cover both derive trial t's stream from
  // (seed, t), so one raw pass is the kernel work of both.
  const RawTrials raw = raw_trials(g, r, derive_streams(r.seed, r.trials));

  std::int64_t t0 = now_ns();
  RunResult run;
  {
    Span span("harness.execute_run", Tracer::instance().next_id());
    run = execute_run(r, &store);
  }
  const double execute_s = seconds_since(t0);
  out.operation(run.ok && run.step_samples == raw.steps &&
                    run.samples == raw.samples,
                "harness probe: execute_run trials differ from raw run_until");

  const ProcessFactory processes = [&r](const Graph& graph, Rng& rng) {
    return ProcessRegistry::instance().create(r.process, graph, r.params, rng);
  };
  const GraphFactory copies = [&g](Rng&) { return g; };
  t0 = now_ns();
  CoverExperimentResult cover;
  {
    Span span("harness.measure_cover", Tracer::instance().next_id());
    cover = measure_cover(processes, copies, r);
  }
  const double cover_s = seconds_since(t0);
  out.operation(cover.samples == raw.samples,
                "harness probe: measure_cover trials differ from raw run_until");

  std::vector<Rng> sweep_streams;
  for (std::uint32_t t = 0; t < r.trials; ++t)
    sweep_streams.push_back(sweep_stream(r.seed, 0, t, 1));
  const RawTrials raw_sweep = raw_trials(g, r, std::move(sweep_streams));
  SweepPoint point;
  point.label = "harness-probe";
  point.graph = copies;
  point.series.push_back(SweepSeriesSpec{r.process, processes, CoverTarget::kVertices});
  point.max_steps = r.max_steps;
  SweepConfig config;
  config.trials = r.trials;
  config.threads = 1;
  config.master_seed = r.seed;
  t0 = now_ns();
  SweepResult sweep;
  {
    Span span("sweep.run_sweep", Tracer::instance().next_id());
    sweep = run_sweep("harness-probe", {point}, config);
  }
  const double sweep_s = seconds_since(t0);
  out.operation(sweep.points.at(0).series.at(0).samples == raw_sweep.samples,
                "harness probe: run_sweep trials differ from raw run_until");

  out.metric("harness.execute_run_ratio", execute_s / raw.seconds, "ratio");
  out.metric("harness.measure_cover_ratio", cover_s / raw.seconds, "ratio");
  out.metric("harness.run_sweep_ratio", sweep_s / raw_sweep.seconds, "ratio");

  // Everything execute_run does before its trial phase: validation, the
  // store lookup and the probe construction that resolves the target.
  RunRequest p = req;
  p.max_steps = 1;
  std::vector<double> pretrial;
  for (int rep = 0; rep < 3; ++rep) {
    t0 = now_ns();
    RunResult res;
    {
      Span span("harness.execute_run", Tracer::instance().next_id());
      res = execute_run(p, &store);
    }
    pretrial.push_back(seconds_since(t0) - res.wall_seconds);
    out.operation(res.ok, "harness probe: pretrial execute_run failed: " + res.error);
  }
  out.metric("harness.pretrial_s", median(pretrial), "s");
}

void report_sweep_layers(Outcome& out, const SweepResult& result,
                         std::uint32_t threads) {
  double busy = 0.0;
  for (const SweepThreadTimeline& t : result.thread_timeline)
    for (const double b : t.busy_seconds) busy += b;
  out.metric("sweep.gen_share",
             result.gen_seconds / (result.gen_seconds + result.walk_seconds),
             "ratio");
  out.metric("sweep.unit_max_over_wall",
             result.unit_seconds_max / result.wall_seconds, "ratio");
  out.metric("executor.busy_frac",
             busy / (static_cast<double>(threads) * result.wall_seconds),
             "ratio");
}

std::vector<SweepPoint> fig1_points(const std::vector<std::uint32_t>& degrees,
                                    const std::vector<Vertex>& ns,
                                    std::uint64_t request, std::uint64_t parent) {
  std::vector<SweepPoint> points;
  for (const std::uint32_t d : degrees)
    for (const Vertex n : ns) {
      SweepPoint point;
      point.label = std::string("d").append(std::to_string(d)).append("-n").append(
          std::to_string(n));
      point.params = {{"d", static_cast<double>(d)}, {"n", static_cast<double>(n)}};
      point.graph = [n, d, request, parent](Rng& rng) {
        Span span("graph.generate", request, parent);
        return random_regular_pairing_connected(n, d, rng);
      };
      point.series.push_back(SweepSeriesSpec{
          "eprocess",
          [request, parent](const Graph& g, Rng&) -> std::unique_ptr<WalkProcess> {
            Span span("kernel.process_create", request, parent);
            return std::make_unique<EProcessHandle>(g, /*start=*/0,
                                                    std::make_unique<UniformRule>());
          },
          CoverTarget::kVertices});
      points.push_back(std::move(point));
    }
  return points;
}

namespace {

// A small Figure-1 sweep for traced runs of workloads without one.
SweepResult mini_sweep(std::uint64_t seed, bool smoke) {
  const std::vector<Vertex> ns =
      smoke ? std::vector<Vertex>{500, 1000} : std::vector<Vertex>{10000, 20000};
  const std::uint64_t request = Tracer::instance().next_id();
  SweepConfig config;
  config.trials = smoke ? 1 : 3;
  config.threads = Executor::hardware_threads();
  config.master_seed = seed;
  Span span("sweep.run_sweep", request);
  return run_sweep("mini", fig1_points({3, 4, 5, 6}, ns, request, span.id()),
                   config);
}

}  // namespace

void probe_common(Outcome& out, const Options& opt, bool has_sweep,
                  bool has_server) {
  probe_executor(out, opt.smoke);
  if (!has_sweep)
    report_sweep_layers(out, mini_sweep(opt.seed, opt.smoke),
                        Executor::hardware_threads());
  if (!has_server) mini_replay(out, opt.seed, opt.smoke);
}

void report_trace_overhead(Outcome& out, double untraced_s, double traced_s) {
  out.metric("trace.overhead_frac", (traced_s - untraced_s) / untraced_s,
             "ratio");
}

}  // namespace perfbench
