// fig1-sweep: the paper's Figure-1 grid through run_sweep.
//
// Uniform-rule E-process to vertex cover on pairing random d-regular
// graphs, d in {3,4,5,6}, n in {1e5,2e5,4e5}, 5 trials, threads = nproc.
// Generation runs inside the sweep's units by design, so it is part of
// wall_s; setup_s times cold generations of the grid's largest graph (the
// set-up each of its units pays before walking).
#include "engine/registry.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ewalk;

namespace {

struct Grid {
  std::vector<std::uint32_t> degrees;
  std::vector<Vertex> ns;
  std::uint32_t trials;
};

Grid grid(bool smoke) {
  if (smoke) return Grid{{3, 4, 5, 6}, {1000, 2000}, 2};
  return Grid{{3, 4, 5, 6}, {100000, 200000, 400000}, 5};
}

struct SweepPass {
  double seconds = 0.0;
  SweepResult result;
  std::vector<double> samples;  // all points' samples, point order
};

SweepPass run_one_sweep(const Grid& g, std::uint64_t seed) {
  const std::uint64_t request = Tracer::instance().next_id();
  SweepConfig config;
  config.trials = g.trials;
  config.threads = Executor::hardware_threads();
  config.master_seed = seed;
  SweepPass pass;
  const std::int64_t t0 = now_ns();
  {
    Span span("sweep.run_sweep", request);
    pass.result = run_sweep("fig1-sweep",
                            fig1_points(g.degrees, g.ns, request, span.id()),
                            config);
  }
  pass.seconds = seconds_since(t0);
  for (const SweepPointResult& p : pass.result.points)
    for (const double s : p.series.at(0).samples) pass.samples.push_back(s);
  return pass;
}

// Every trial covered, every sample in range, and the samples identical to
// `expected` when given (repetitions share inputs).
void check_sweep(Outcome& out, const SweepPass& pass,
                 const std::vector<double>& expected) {
  std::size_t i = 0;
  for (const SweepPointResult& p : pass.result.points) {
    const double n = p.params.at(1).value;
    const SweepSeriesResult& s = p.series.at(0);
    for (const double sample : s.samples) {
      // A vertex cover needs at least n-1 steps; the paper's odd-degree
      // curves stay far below 50n at these sizes.
      const bool in_range =
          s.uncovered_trials == 0 && sample >= n - 1 && sample <= 50 * n;
      const bool repeats = expected.empty() || expected.at(i) == sample;
      out.operation(in_range && repeats,
                    "fig1-sweep " + p.label + " trial sample " +
                        std::to_string(sample) +
                        (repeats ? " out of range" : " differs between repetitions"));
      ++i;
    }
  }
}

}  // namespace

Outcome run_fig1_sweep(const Options& opt) {
  Outcome out;
  const Grid g = grid(opt.smoke);
  const std::uint32_t threads = Executor::hardware_threads();
  const std::uint32_t d_max = g.degrees.back();
  const Vertex n_max = g.ns.back();
  const GraphSpec largest{
      "regular-pairing n=" + std::to_string(n_max) + " r=" + std::to_string(d_max),
      "regular-pairing",
      {{"n", std::to_string(n_max)}, {"r", std::to_string(d_max)}},
      opt.seed};

  if (opt.trace) {
    const SweepPass untraced = run_one_sweep(g, opt.seed);
    Tracer::instance().enable(true);
    const SweepPass traced = run_one_sweep(g, opt.seed);
    check_sweep(out, untraced, {});
    check_sweep(out, traced, untraced.samples);
    report_sweep_layers(out, traced.result, threads);
    probe_graph(out, largest);
    {
      GraphStore store;
      RunRequest req;
      req.graph = largest.generator;
      req.process = "eprocess";
      req.params = largest.params;
      req.seed = opt.seed;
      req.trials = g.trials;
      req.threads = threads;
      const auto cached = store.acquire(req.graph, req.params, req.seed);
      probe_kernel(out, cached->graph(), opt.seed, opt.smoke);
      probe_harness(out, store, req, opt.smoke);
    }
    probe_common(out, opt, /*has_sweep=*/true, /*has_server=*/false);
    report_trace_overhead(out, untraced.seconds, traced.seconds);
    return out;
  }

  // Set-up: cold generations of the grid's largest graph with the stream
  // its trial-0 unit uses (point index of (d_max, n_max) is the last one).
  std::vector<double> setup_s;
  const std::size_t last_point = g.degrees.size() * g.ns.size() - 1;
  for (int rep = 0; rep < 3; ++rep) {
    Rng rng = sweep_stream(opt.seed, last_point, 0, 0);
    const std::int64_t t0 = now_ns();
    Graph graph = GeneratorRegistry::instance().create(largest.generator,
                                                       largest.params, rng);
    setup_s.push_back(seconds_since(t0));
    if (rep == 0)
      note_working_set(out, largest.label,
                       CachedGraph(std::move(graph), true).bytes());
  }

  std::vector<double> expected;
  std::size_t trials_done = 0;
  const std::vector<double> reps = repeat_within(opt.seconds, [&] {
    const SweepPass pass = run_one_sweep(g, opt.seed);
    check_sweep(out, pass, expected);
    if (expected.empty()) {
      expected = pass.samples;
      const bool pinned_ok = opt.smoke || check_pinned(out, opt.workload, opt.seed,
                                                       digest(pass.samples));
      out.operation(pinned_ok, "fig1-sweep samples differ from the pinned digest");
    }
    trials_done += pass.samples.size();
    return pass.seconds;
  });

  report_batch(out, reps, setup_s, trials_done);
  return out;
}

}  // namespace perfbench
