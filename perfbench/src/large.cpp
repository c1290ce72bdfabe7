// large-cover: one CLI-shaped execute_run at paper-range n.
//
// regular-pairing n=7e6 r=4, eprocess, 4 trials, threads = nproc, default
// flags otherwise. The CSR (CachedGraph::bytes, ~364 MB) is larger than
// the last-level cache, so the kernel is latency-bound. setup_s is the
// cold GraphStore::acquire (generation plus the connectivity check);
// wall_s is the execute_run that follows on the warm store.
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ewalk;

namespace {

struct Pass {
  double seconds = 0.0;
  RunResult result;
};

Pass execute(const RunRequest& req, GraphStore& store) {
  Pass pass;
  const std::int64_t t0 = now_ns();
  {
    Span span("harness.execute_run", Tracer::instance().next_id());
    pass.result = execute_run(req, &store);
  }
  pass.seconds = seconds_since(t0);
  return pass;
}

double cold_acquire(GraphStore& store, const RunRequest& req) {
  const std::int64_t t0 = now_ns();
  Span span("serve.store_acquire", Tracer::instance().next_id());
  store.acquire(req.graph, req.params, req.seed);
  return seconds_since(t0);
}

// Every trial covered within the budget, every sample in range (a vertex
// cover takes at least n-1 steps; the E-process on even-degree expanders
// covers in about 2n), and the samples identical to `expected` when given.
void check_run(Outcome& out, const Pass& pass, double n,
               const std::vector<double>& expected) {
  const RunResult& r = pass.result;
  if (!r.ok) {
    out.operation(false, "large-cover execute_run failed: " + r.error);
    return;
  }
  for (std::size_t t = 0; t < r.samples.size(); ++t) {
    const double s = r.samples[t];
    const bool in_range = r.unfinished == 0 && s >= n - 1 && s <= 4 * n &&
                          r.stats.mean >= 1.5 * n && r.stats.mean <= 3 * n;
    const bool repeats = expected.empty() || expected.at(t) == s;
    out.operation(in_range && repeats,
                  "large-cover trial " + std::to_string(t) + " sample " +
                      std::to_string(s) +
                      (repeats ? " out of range" : " differs between repetitions"));
  }
}

}  // namespace

Outcome run_large_cover(const Options& opt) {
  Outcome out;
  const std::string n = opt.smoke ? "20000" : "7000000";
  const std::uint32_t threads = Executor::hardware_threads();
  const RunRequest req = run_request_from_params(ParamMap{
      {"graph", "regular-pairing"}, {"process", "eprocess"}, {"n", n}, {"r", "4"},
      {"trials", "4"}, {"threads", std::to_string(threads)},
      {"seed", std::to_string(opt.seed)}});
  const double n_value = std::stod(n);

  if (opt.trace) {
    GraphStore store;
    cold_acquire(store, req);
    const Pass untraced = execute(req, store);
    Tracer::instance().enable(true);
    const Pass traced = execute(req, store);
    check_run(out, untraced, n_value, {});
    check_run(out, traced, n_value, untraced.result.samples);
    probe_graph(out, GraphSpec{"regular-pairing n=" + n + " r=4", req.graph,
                               req.params, req.seed});
    probe_kernel(out, store.acquire(req.graph, req.params, req.seed)->graph(),
                 opt.seed, opt.smoke);
    probe_harness(out, store, req, opt.smoke);
    probe_common(out, opt, /*has_sweep=*/false, /*has_server=*/false);
    report_trace_overhead(out, untraced.seconds, traced.seconds);
    return out;
  }

  // Set-up three times, each into a cold store; the last store is kept
  // (the throwaway ones go first so only one large graph is ever resident).
  std::vector<double> setup_s;
  for (int rep = 0; rep < 2; ++rep) {
    GraphStore throwaway;
    setup_s.push_back(cold_acquire(throwaway, req));
  }
  GraphStore store;
  setup_s.push_back(cold_acquire(store, req));
  note_working_set(out, "regular-pairing n=" + n + " r=4",
                   store.acquire(req.graph, req.params, req.seed)->bytes());

  std::vector<double> expected;
  std::size_t trials_done = 0;
  const std::vector<double> reps = repeat_within(opt.seconds, [&] {
    const Pass pass = execute(req, store);
    check_run(out, pass, n_value, expected);
    if (expected.empty()) {
      expected = pass.result.samples;
      const bool pinned_ok =
          opt.smoke || check_pinned(out, opt.workload, opt.seed,
                                    digest(pass.result.samples));
      out.operation(pinned_ok, "large-cover samples differ from the pinned digest");
      out.note("mean_cover_time", pass.result.stats.mean);
      out.note("trial_phase_s", pass.result.wall_seconds);
    }
    trials_done += pass.result.samples.size();
    return pass.seconds;
  });

  report_batch(out, reps, setup_s, trials_done);
  return out;
}

}  // namespace perfbench
