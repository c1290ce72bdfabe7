// ewalk — command-line driver: run any walk process on any generator and
// print cover (or coalescence) statistics, e.g.
//   ewalk --graph regular --n 100000 --r 4 --process eprocess
//
// Every flag is declared once: the run options by run_schema()
// (serve/request.hpp, shared with the ewalkd protocol), ewalk's own flags
// by cli_flags() below, and family/process parameters by their registry
// entries. `ewalk --help` is generated from those declarations, with each
// parameter's default, and a flag none of them declares is an error with
// nearest-name suggestions (`--nn` suggests --n) instead of a silent no-op.
//
// A single run is one execute_run call on the RunRequest the flags build —
// the entry point the ewalkd daemon dispatches — so CLI and daemon samples
// are bit-identical by construction; token processes default to
// --target coalescence. --sweep n1,n2,... instead sweeps the family's --n
// through the sweep driver (src/sweep/) and writes
// bench_out/SWEEP_cli.{json,csv}, the format the sweep benches emit.
// Trial t's RNG stream is a pure function of (--seed, t), so --threads,
// --pin and --bundle change wall time only, never the samples.
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

// ewalk's own flags. With run_schema() and the chosen family's and
// process's schemas, these are the only keys ewalk accepts.
const ParamSchema& cli_flags() {
  static const ParamSchema flags = [] {
    const SweepConfig sweep;
    return ParamSchema{
        {"sweep", ParamType::kString, "", {},
         "sweep --n over n1,n2,... (writes bench_out/SWEEP_cli.{json,csv})"},
        {"max-trials", ParamType::kU32, std::to_string(sweep.max_trials), {},
         "sweep: > 0 adds trials up to this cap until the CI meets --ci-width"},
        {"ci-width", ParamType::kDouble, format_real(sweep.ci_rel_target), {},
         "sweep: target 95% CI half-width relative to the mean"},
        {"csv", ParamType::kString, "", {}, "write per-trial counts to this CSV"},
        {"profile", ParamType::kBool, "false", {}, "print the graph's profile"},
        {"pin", ParamType::kBool, "false", {}, "pin scheduler workers to CPUs (Linux)"},
        {"help", ParamType::kBool, "false", {}, "this text"},
    };
  }();
  return flags;
}

void print_help() {
  std::printf(
      "ewalk — run any registered walk process on any graph family\n\n"
      "usage: ewalk --graph <family> [family params] --process <name> "
      "[process params] [options]\n(every parameter is shown with its "
      "default)\n\nrun options (also ewalkd request fields):\n");
  print_params(run_schema(), "  ");
  std::printf("\newalk options:\n");
  print_params(cli_flags(), "  ");
  std::printf("\ngraph families (--graph):\n");
  for (const GeneratorEntry& e : GeneratorRegistry::instance().entries()) {
    std::printf("  %-20s %s\n", e.name.c_str(), e.summary.c_str());
    print_params(e.params, "      ");
  }
  std::printf("\nwalk processes (--process):\n");
  for (const ProcessEntry& e : ProcessRegistry::instance().entries()) {
    std::printf("  %-20s %s%s\n", e.name.c_str(), e.summary.c_str(),
                e.kind == ProcessKind::kToken ? " [token process]" : "");
    print_params(e.params, "      ");
  }
  std::printf("\nE-process rules (--rule):");
  for (const auto& r : rule_names()) std::printf(" %s", r.c_str());
  std::printf("\n");
}

// Sweep mode: --sweep n1,n2,... sweeps the family's --n parameter through
// the sweep driver — one point per size, the chosen process as its only
// series — and emits the standard SWEEP_*.json/csv pair under bench_out/.
int run_cli_sweep(const RunRequest& req, const ParamMap& flags) {
  const std::vector<std::uint64_t> ns = parse_u64_list("sweep", flags.get("sweep"));

  // Sweeping overrides the family's --n; a family not parameterised by n
  // (torus, lps, hypercube, ...) would silently build the identical graph
  // at every point and normalise by a fictitious n.
  if (find_param(GeneratorRegistry::instance().schema(req.graph, req.params),
                 "n") == nullptr)
    throw std::invalid_argument(
        "--sweep sweeps the --n parameter, but family '" + req.graph +
        "' is not parameterised by --n (use e.g. regular, regular-pairing, "
        "cycle, complete, hamunion, erdosrenyi, geometric)");

  // The target resolves as in a single run; a sweep measures cover times,
  // so the coalescence default of a token process needs an explicit
  // cover target.
  const RunTarget resolved = resolve_run_target(
      req.target, ProcessRegistry::instance().at(req.process));
  if (resolved == RunTarget::kCoalescence)
    throw std::invalid_argument(
        req.target == RunTarget::kAuto
            ? "--sweep measures cover times, and token process '" +
                  req.process +
                  "' defaults to --target coalescence: pass --target "
                  "vertices|edges"
            : "--sweep supports --target vertices|edges");
  const bool edges = resolved == RunTarget::kEdges;
  const char* target = edges ? "edges" : "vertices";

  std::vector<SweepPoint> points;
  for (const std::uint64_t n : ns) {
    ParamMap point_params = req.params;
    point_params.set("n", std::to_string(n));
    SweepPoint point;
    point.label = std::string("n").append(std::to_string(n));
    point.params = {{"n", static_cast<double>(n)}};
    point.graph = [family = req.graph, point_params](Rng& rng) {
      return GeneratorRegistry::instance().create(family, point_params, rng);
    };
    point.series = {SweepSeriesSpec{
        req.process,
        [process = req.process, point_params](const Graph& g, Rng& rng) {
          return ProcessRegistry::instance().create(process, g, point_params, rng);
        },
        edges ? CoverTarget::kEdges : CoverTarget::kVertices}};
    point.max_steps = req.max_steps;
    points.push_back(std::move(point));
  }

  SweepConfig config;
  config.trials = req.trials;
  config.threads = req.threads;
  config.master_seed = req.seed;
  config.max_trials = static_cast<std::uint32_t>(flags.get_u64("max-trials"));
  config.ci_rel_target = flags.get_double("ci-width");
  config.bundle_width = req.bundle_width;
  const SweepResult result = run_sweep("cli", points, config);

  if (config.max_trials > 0)
    std::printf(
        "sweep: %s on %s, target %s, adaptive trials (floor %u, cap %u, "
        "CI width <= %.3g of mean)\n",
        req.process.c_str(), req.graph.c_str(), target, req.trials,
        config.max_trials, config.ci_rel_target);
  else
    std::printf("sweep: %s on %s, target %s, %u trials/point\n",
                req.process.c_str(), req.graph.c_str(), target, req.trials);
  print_sweep_table(result);
  const std::string json = write_sweep_json(result);
  const std::string csv = write_sweep_csv(result);
  std::printf("wrote %s and %s\n", json.c_str(), csv.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Cli cli(argc, argv);
    if (cli.has("help")) {
      print_help();
      return 0;
    }
    // Every flag must be a run field, one of cli_flags(), or a parameter
    // the family or the process declares; --walk/--generator fold onto
    // --process/--graph here.
    RunRequest req = run_request_from_params(cli, cli_flags());
    const ParamMap flags = cli.with_defaults(cli_flags());
    req.threads = resolve_cli_threads(cli, req.threads);

    if (flags.has("sweep")) return run_cli_sweep(req, flags);

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

    if (flags.get_bool("profile")) {
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
    if (result.unfinished > result.unreachable)
      std::printf("  WARNING: %u/%u trials did not finish within %llu steps;\n"
                  "  their samples (and the statistics above) are clamped to the\n"
                  "  budget — raise --max-steps for true values\n",
                  result.unfinished - result.unreachable, req.trials,
                  static_cast<unsigned long long>(result.budget));
    if (result.unreachable > 0)
      std::printf("  WARNING: %u/%u trials cannot coalesce: once the graph stopped\n"
                  "  changing, their tokens sat alone in more components than the\n"
                  "  target allows; their samples are clamped to the budget\n",
                  result.unreachable, req.trials);

    if (flags.has("csv")) {
      std::vector<std::string> header = {"trial", "result_step", "total_steps"};
      if (coalescence) header.push_back("meeting_step");
      CsvWriter csv(flags.get("csv"), std::move(header));
      for (std::uint32_t t = 0; t < req.trials; ++t) {
        if (coalescence)
          csv.row({static_cast<double>(t), result.samples[t],
                   result.step_samples[t], result.meeting_samples[t]});
        else
          csv.row({static_cast<double>(t), result.samples[t],
                   result.step_samples[t]});
      }
      std::printf("  wrote %s\n", flags.get("csv").c_str());
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
  return 0;
}
