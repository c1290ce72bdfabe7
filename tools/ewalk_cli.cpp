// ewalk — command-line driver: run any walk process on any generator and
// print cover (or coalescence) statistics. The "product" face of the
// library for quick experiments without writing C++.
//
// Usage:
//   ewalk --graph <family> [graph params] --process <process> [walk params]
//         [--trials N] [--threads T] [--seed S]
//         [--target vertices|edges|coalescence]
//         [--start V] [--max-steps B] [--csv out.csv] [--profile]
//         [--sweep n1,n2,...] [--bundle W]
//
// (--walk is accepted as a synonym for --process, --generator for --graph.)
//
// --sweep n1,n2,... switches to sweep mode: the --n parameter of the chosen
// family is swept over the listed sizes through the sweep driver
// (src/sweep/), one point per size with --trials trials each, scheduled on
// the thread pool with graph construction inside the tasks. Results print
// as a table and land in bench_out/SWEEP_cli.{json,csv} — the same
// machine-readable format the sweep benches emit — so a quick
// figure-style sweep needs no bench binary:
//   ewalk --generator regular-pairing --r 4 --process eprocess --sweep \
//         25000,50000,100000 --trials 5 --threads 0
//
// Trials run through the experiment harness's one trial loop
// (run_target_trials) on the work-stealing Executor: trial t's RNG stream is
// a pure function of (--seed, t), so --threads, --pin and --bundle change
// wall time only, never the reported samples.
//
// Graph families and walk processes are dispatched through the engine
// registries (src/engine/registry.hpp); `ewalk --help` lists every
// registered name with its parameters — the list below is generated, not
// hard-coded, so registering a new process or family updates it
// automatically. Interacting-token processes (coalescing-srw,
// coalescing-ewalk, herman) default to --target coalescence and report the
// coalescence and first-meeting times instead of a cover time.
//
// Examples:
//   ewalk --graph regular --n 100000 --r 4 --process eprocess
//   ewalk --graph lps --p 5 --q 29 --process eprocess --target edges
//   ewalk --graph torus --w 200 --h 200 --process rwc --d 2 --trials 10
//   ewalk --graph hamunion --n 50000 --k 3 --process multi-eprocess --walkers 8
//   ewalk --graph complete --n 1024 --process coalescing-srw --tokens 32
//   ewalk --graph cycle --n 257 --process herman --tokens 3
//
// Since the serving-layer redesign the non-sweep path is one call: the flag
// bag becomes a RunRequest (serve/request.hpp) — the same canonical struct
// the ewalkd daemon parses from protocol lines — and execute_run produces
// the RunResult this driver formats. CLI and daemon samples are therefore
// bit-identical by construction.
#include <cstdio>
#include <memory>
#include <string>

#include "analysis/profile.hpp"
#include "covertime/experiment.hpp"
#include "engine/params.hpp"
#include "engine/registry.hpp"
#include "serve/request.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace {

using namespace ewalk;

void print_help() {
  std::printf(
      "ewalk — run any registered walk process on any graph family\n\n"
      "usage: ewalk --graph <family> [graph params] --process <name> [walk params]\n"
      "             [--trials N] [--threads T] [--pin] [--seed S]\n"
      "             [--target vertices|edges|coalescence]\n"
      "             [--max-steps B] [--csv out.csv] [--profile]\n"
      "             [--sweep n1,n2,...] [--max-trials M] [--ci-width W]\n"
      "             [--bundle W]\n"
      "       (--walk is a synonym for --process, --generator for --graph;\n"
      "        --threads 0 = all hardware threads, values above hardware are\n"
      "        clamped with a warning; --pin pins scheduler workers to CPUs\n"
      "        (Linux only, rejected elsewhere); --sweep sweeps --n over the\n"
      "        listed sizes via the sweep driver and writes\n"
      "        bench_out/SWEEP_cli.json; --max-trials M > 0 makes trial\n"
      "        counts adaptive: each series runs --trials to M trials until\n"
      "        its 95%% CI half-width is within --ci-width (default 0.05) of\n"
      "        its mean; --bundle W > 1 interleaves W trials per task to hide\n"
      "        DRAM latency on big graphs, in single runs and sweeps alike —\n"
      "        samples are bit-identical to --bundle 1)\n\n");
  std::printf("graph families (--graph):\n");
  for (const auto& e : GeneratorRegistry::instance().entries())
    std::printf("  %-12s %-22s %s\n", e.name.c_str(), e.params_help.c_str(),
                e.summary.c_str());
  std::printf("\nwalk processes (--process):\n");
  for (const auto& e : ProcessRegistry::instance().entries())
    std::printf("  %-16s %-34s %s\n", e.name.c_str(), e.params_help.c_str(),
                e.summary.c_str());
  std::printf("\nE-process rules (--rule):");
  for (const auto& r : rule_names()) std::printf(" %s", r.c_str());
  std::printf(
      "\n\nInteracting-token processes default to --target coalescence\n"
      "(drive the population to one token; report coalescence and\n"
      "first-meeting steps). When --max-steps is absent the engine's\n"
      "default_step_budget(g) heuristic bounds each trial\n"
      "(see src/engine/budget.hpp).\n");
}

// Sweep mode: --sweep n1,n2,... sweeps the family's --n parameter through
// the sweep driver — one point per size, the chosen process as its only
// series — and emits the standard SWEEP_*.json/csv pair under bench_out/.
int run_cli_sweep(const Cli& cli, const std::string& family,
                  const std::string& process, std::uint32_t trials) {
  const std::string spec = cli.get("sweep", "");
  if (spec.empty())
    throw std::invalid_argument("--sweep needs a comma-separated size list");
  const std::vector<std::uint64_t> ns = parse_u64_list(spec);

  // Sweeping overrides the family's --n; a family not parameterised by n
  // (torus, lps, hypercube, ...) would silently build the identical graph
  // at every point and normalise by a fictitious n.
  bool family_known = false, family_has_n = false;
  for (const auto& e : GeneratorRegistry::instance().entries())
    if (e.name == family) {
      family_known = true;
      family_has_n = e.params_help.find("--n") != std::string::npos;
    }
  if (family_known && !family_has_n)
    throw std::invalid_argument(
        "--sweep sweeps the --n parameter, but family '" + family +
        "' is not parameterised by --n (use e.g. regular, regular-pairing, "
        "cycle, complete, hamunion, erdosrenyi, geometric)");

  const std::string target = cli.get("target", "vertices");
  if (target != "vertices" && target != "edges")
    throw std::invalid_argument("--sweep supports --target vertices|edges");

  std::vector<SweepPoint> points;
  for (const std::uint64_t n : ns) {
    ParamMap point_params = cli.params();
    point_params.set("n", std::to_string(n));
    SweepPoint point;
    point.label = "n" + std::to_string(n);
    point.params = {{"n", static_cast<double>(n)}};
    point.graph = [family, point_params](Rng& rng) {
      return GeneratorRegistry::instance().create(family, point_params, rng);
    };
    point.series = {SweepSeriesSpec{
        process,
        [process, point_params](const Graph& g, Rng& rng) {
          return ProcessRegistry::instance().create(process, g, point_params, rng);
        },
        target == "edges" ? CoverTarget::kEdges : CoverTarget::kVertices}};
    point.max_steps = cli.get_u64("max-steps", 0);
    points.push_back(std::move(point));
  }

  SweepConfig config;
  config.trials = trials;
  config.threads = resolve_cli_threads(cli, /*default_threads=*/1);
  config.master_seed = cli.get_u64("seed", 1);
  config.max_trials = static_cast<std::uint32_t>(cli.get_u64("max-trials", 0));
  config.ci_rel_target = cli.get_double("ci-width", config.ci_rel_target);
  config.bundle_width = static_cast<std::uint32_t>(cli.get_u64("bundle", 1));
  const SweepResult result = run_sweep("cli", points, config);

  if (config.max_trials > 0)
    std::printf(
        "sweep: %s on %s, target %s, adaptive trials (floor %u, cap %u, "
        "CI width <= %.3g of mean)\n",
        process.c_str(), family.c_str(), target.c_str(), trials,
        config.max_trials, config.ci_rel_target);
  else
    std::printf("sweep: %s on %s, target %s, %u trials/point\n",
                process.c_str(), family.c_str(), target.c_str(), trials);
  print_sweep_table(result);
  const std::string json = write_sweep_json(result);
  const std::string csv = write_sweep_csv(result);
  std::printf("wrote %s and %s\n", json.c_str(), csv.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.has("help")) {
    print_help();
    return 0;
  }
  try {
    // The Cli constructor already folded --walk/--generator onto the
    // canonical --process/--graph spellings (util/cli's shared table).
    RunRequest req = run_request_from_params(cli.params());

    if (cli.has("sweep"))
      return run_cli_sweep(cli, req.graph, req.process, req.trials);

    req.threads = resolve_cli_threads(cli, /*default_threads=*/1);

    // The whole non-sweep run is one execute_run call — the same entry
    // point the ewalkd daemon dispatches, minus the graph cache.
    const RunResult result = execute_run(req, /*store=*/nullptr);
    if (!result.ok) {
      std::fprintf(stderr, "error: %s\n", result.error.c_str());
      return 1;
    }

    const Graph& g = result.graph->graph();
    std::printf("graph: n=%u m=%u min_deg=%u max_deg=%u even=%s connected=%s\n",
                g.num_vertices(), g.num_edges(), g.min_degree(), g.max_degree(),
                g.all_degrees_even() ? "yes" : "no",
                result.graph->connected() ? "yes" : "no");

    if (cli.has("profile")) {
      ProfileOptions popts;
      popts.compute_ell = g.num_vertices() <= 200000;
      std::printf("%s", format_profile(profile_graph(g, popts)).c_str());
    }

    const bool coalescence = result.target == RunTarget::kCoalescence;
    const char* quantity = coalescence ? "coalescence"
                           : result.target == RunTarget::kEdges ? "edge cover"
                                                                : "vertex cover";
    const SummaryStats& stats = result.stats;
    std::printf("%s time over %u trials:\n", quantity, req.trials);
    std::printf("  mean   %14.0f  (+/- %0.0f at 95%%)\n", stats.mean,
                stats.ci95_halfwidth());
    std::printf("  median %14.0f   min %0.0f   max %0.0f\n", stats.median,
                stats.min, stats.max);
    std::printf("  normalised: /n = %.3f   /m = %.3f\n",
                stats.mean / g.num_vertices(), stats.mean / g.num_edges());
    if (coalescence)
      std::printf("  first meeting: mean %.0f   median %.0f\n",
                  result.meeting_stats.mean, result.meeting_stats.median);
    std::printf("  throughput: %.3g steps/sec (%.0f steps, %.2fs wall, --threads %u)\n",
                result.wall_seconds > 0 ? result.total_steps / result.wall_seconds
                                        : 0.0,
                result.total_steps, result.wall_seconds, req.threads);
    if (result.unfinished > 0)
      std::printf("  WARNING: %u/%u trials did not finish within %llu steps;\n"
                  "  their samples (and the statistics above) are clamped to the\n"
                  "  budget — raise --max-steps for true values\n",
                  result.unfinished, req.trials,
                  static_cast<unsigned long long>(result.budget));

    if (cli.has("csv")) {
      std::vector<std::string> header = {"trial", "result_step", "total_steps"};
      if (coalescence) header.push_back("meeting_step");
      CsvWriter csv(cli.get("csv", "ewalk.csv"), std::move(header));
      for (std::uint32_t t = 0; t < req.trials; ++t) {
        if (coalescence)
          csv.row({static_cast<double>(t), result.samples[t],
                   result.step_samples[t], result.meeting_samples[t]});
        else
          csv.row({static_cast<double>(t), result.samples[t],
                   result.step_samples[t]});
      }
      std::printf("  wrote %s\n", cli.get("csv", "ewalk.csv").c_str());
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
  return 0;
}
