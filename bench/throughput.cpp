// Steps/sec throughput microbenchmark: the repo's perf trajectory.
//
// Every optimisation PR needs a number. This bench sweeps the registered
// walks the paper compares — SRW (plain and lazy), the E-process under the
// uniform, round-robin and adversary rules, rotor-router, RWC(d), the
// V-process (vertexwalk) and the locally-fair leastused walk — plus
// coalescing SRW tokens and Herman's protocol over the standard graph
// families (cycle, random-regular, hypercube, LPS Ramanujan, complete) and
// reports raw steps/sec for each (process, family) pair, running every pair
// as a bundle of one through run_trial_bundle (engine/bundle.hpp) with check
// stride --chunk — the trial kernel every CLI, sweep and daemon trial runs
// through, so the measured path is the path real experiments take.
//
// Output:
//   * stdout table
//   * bench_out/BENCH_throughput.csv   (one row per pair)
//   * bench_out/BENCH_throughput.json  (machine-readable; schema below)
//
// JSON schema (checked by CI's perf-smoke job):
//   { "bench": "throughput", "version": 2, "quick": bool, "seed": u64,
//     "chunk": u64,
//     "results": [ { "process": str, "graph": str, "n": u32, "m": u32,
//                    "bundle": u32, "steps": u64, "seconds": f64,
//                    "steps_per_sec": f64 },
//                  ... ] }
//   (version 1 lacked the per-result "bundle" width; the validator accepts
//   both, so old artifacts keep validating.)
//
// Flags: --quick (CI sizes), --steps N (override steps per pair),
//        --seed S, --chunk K (trial-kernel check stride),
//        --bundle W1,W2,... (latency-tier bundle widths, default 1,4,8,16),
//        --latency-n N / --latency-steps S (latency-tier size and per-walk
//        budget), --latency-reps R (best-of-R per row, default 3).
//
// Throughput is measured from a fresh process each time, so the E-process
// numbers include the expensive all-blue opening phase — that is deliberate:
// the blue phase is where the eviction cost lives, and a dense family
// (complete) is included precisely to expose it.
//
// The latency-bound tier (rows with graph "regular-<n>": "regular-1m" at the
// default --latency-n 1000000, "regular-250k" at 250000) runs SRW and the
// uniform-rule E-process on a sparse random-regular graph — at n = 1e6 a CSR
// far outside LLC, where every step is a dependent DRAM miss — once per
// bundle width: width W interleaves W independent walks round-robin through
// engine/bundle.hpp so the misses overlap. Every walk gets the SAME per-walk
// budget (--latency-steps) regardless of width — per-step work is then
// identical across widths and steps/sec across the width column is a direct
// read of how much latency the interleave hides (total work scales with W).
// Each row is the best of --latency-reps runs to cut through runner jitter.
// Runs in --quick too: perf PRs quote this table.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "engine/bundle.hpp"
#include "engine/params.hpp"
#include "engine/registry.hpp"
#include "graph/graph.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace ewalk;

struct FamilySpec {
  std::string key;        // short label, e.g. "cycle"
  std::string generator;  // GeneratorRegistry name
  ParamMap params;
};

struct ProcessSpec {
  std::string key;      // short label, e.g. "eprocess-rr"
  std::string process;  // ProcessRegistry name
  ParamMap params;
  bool cycle_only = false;  // herman needs a ring
};

struct Result {
  std::string process;
  std::string graph;
  Vertex n;
  EdgeId m;
  std::uint32_t bundle = 1;  // interleave width (1 = a bundle of one)
  std::uint64_t steps;
  double seconds;
  double steps_per_sec;
};

std::vector<FamilySpec> families(bool quick) {
  if (quick) {
    return {
        {"cycle", "cycle", {{"n", "50000"}}},
        {"regular", "regular", {{"n", "10000"}, {"r", "8"}}},
        {"hypercube", "hypercube", {{"r", "12"}}},
        {"lps", "lps", {{"p", "5"}, {"q", "13"}}},
        {"complete", "complete", {{"n", "1000"}}},
    };
  }
  return {
      {"cycle", "cycle", {{"n", "200000"}}},
      {"regular", "regular", {{"n", "50000"}, {"r", "8"}}},
      {"hypercube", "hypercube", {{"r", "14"}}},
      {"lps", "lps", {{"p", "5"}, {"q", "29"}}},
      {"complete", "complete", {{"n", "2000"}}},
  };
}

std::vector<ProcessSpec> processes() {
  return {
      {"srw", "srw", {}},
      {"eprocess-uniform", "eprocess", {{"rule", "uniform"}}},
      {"eprocess-rr", "eprocess", {{"rule", "roundrobin"}}},
      {"coalescing-srw", "coalescing-srw", {{"tokens", "32"}}},
      {"herman", "herman", {{"tokens", "33"}}, /*cycle_only=*/true},
      {"srw-lazy", "srw", {{"lazy", "true"}}},
      {"eprocess-adversary", "eprocess", {{"rule", "adversary"}}},
      {"rotor", "rotor", {}},
      {"rwc", "rwc", {}},
      {"vertexwalk", "vertexwalk", {}},
      {"leastused", "leastused", {}},
  };
}

/// Builds one `proc` walk on `g` per stream in `seeds`, drives them as one
/// bundle through run_trial_bundle for `steps` steps each, and returns the
/// best of `reps` runs. Every rep starts from fresh processes on copies of
/// `seeds`, so the reps repeat the same trajectories.
Result measure(const ProcessSpec& proc, const std::string& graph_key,
               const Graph& g, const std::vector<Rng>& seeds,
               std::uint64_t steps, std::uint64_t chunk, std::uint64_t reps) {
  const std::size_t width = seeds.size();
  Result best{};
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    std::vector<Rng> streams = seeds;
    std::vector<std::unique_ptr<WalkProcess>> walks;
    walks.reserve(width);
    std::vector<BundleTrial> bundle(width);
    for (std::size_t i = 0; i < width; ++i) {
      walks.push_back(ProcessRegistry::instance().create(
          proc.process, g, proc.params, streams[i]));
      bundle[i] = BundleTrial{walks.back().get(), &streams[i], steps, chunk};
    }
    WallTimer timer;
    run_trial_bundle(std::span<const BundleTrial>(bundle),
                     [](const WalkProcess&) { return false; });
    const double secs = timer.seconds();
    std::uint64_t total_steps = 0;
    for (const auto& w : walks) total_steps += w->steps();
    const double rate = static_cast<double>(total_steps) / secs;
    if (rep == 0 || rate > best.steps_per_sec)
      best = Result{proc.key, graph_key, g.num_vertices(), g.num_edges(),
                    static_cast<std::uint32_t>(width), total_steps, secs, rate};
  }
  return best;
}

/// Writes the JSON report; false (after a message on stderr) when `path`
/// cannot be opened.
bool write_json(const std::string& path, bool quick, std::uint64_t seed,
                std::uint64_t chunk, const std::vector<Result>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"throughput\",\n  \"version\": 2,\n"
               "  \"quick\": %s,\n  \"seed\": %llu,\n  \"chunk\": %llu,\n"
               "  \"results\": [\n",
               quick ? "true" : "false",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(chunk));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"process\": %s, \"graph\": %s, \"n\": %u, "
                 "\"m\": %u, \"bundle\": %u, \"steps\": %llu, "
                 "\"seconds\": %.6f, \"steps_per_sec\": %.1f}%s\n",
                 json_quote(r.process).c_str(), json_quote(r.graph).c_str(),
                 r.n, r.m, r.bundle,
                 static_cast<unsigned long long>(r.steps), r.seconds,
                 r.steps_per_sec, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

// Every flag this bench reads; any other is an error.
const ParamSchema& throughput_flags() {
  static const ParamSchema flags = {
      {"quick", ParamType::kBool, "", {}, "CI sizes"},
      {"steps", ParamType::kU64, "", {}, "steps per pair"},
      {"seed", ParamType::kU64, "", {}, "master seed"},
      {"chunk", ParamType::kU64, "", {}, "trial-kernel check stride"},
      {"bundle", ParamType::kString, "", {}, "latency-tier bundle widths W1,W2,..."},
      {"latency-n", ParamType::kU32, "", {}, "latency-tier vertex count"},
      {"latency-steps", ParamType::kU64, "", {}, "latency-tier steps per walk"},
      {"latency-reps", ParamType::kU64, "", {}, "latency-tier best-of-R"},
  };
  return flags;
}

}  // namespace

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  cli.check({&throughput_flags()});
  const bool quick = cli.get_bool("quick", false);
  const std::uint64_t seed = cli.get_u64("seed", 1);
  const std::uint64_t chunk = cli.get_u64("chunk", 4096);
  const std::uint64_t steps_per_pair =
      cli.get_u64("steps", quick ? 400000 : 4000000);

  bench::print_header(
      "throughput: steps/sec per (process, family) pair",
      "engine hot path — O(1) blue eviction + the trial kernel");

  auto csv = bench::open_csv(
      "BENCH_throughput", {"process", "graph", "n", "m", "bundle", "steps",
                           "seconds", "steps_per_sec"});

  std::vector<Result> results;
  std::printf("%-18s %-12s %10s %12s %7s %10s %14s\n", "process", "graph",
              "n", "m", "bundle", "seconds", "steps/sec");

  const auto record = [&](const Result& r) {
    results.push_back(r);
    std::printf("%-18s %-12s %10u %12u %7u %10.3f %14.0f\n", r.process.c_str(),
                r.graph.c_str(), r.n, r.m, r.bundle, r.seconds,
                r.steps_per_sec);
    csv->row({r.process, r.graph, std::to_string(r.n), std::to_string(r.m),
              std::to_string(r.bundle), std::to_string(r.steps),
              std::to_string(r.seconds), std::to_string(r.steps_per_sec)});
  };

  std::uint32_t pair = 0;
  for (const FamilySpec& fam : families(quick)) {
    Rng graph_rng(seed);
    const Graph g =
        GeneratorRegistry::instance().create(fam.generator, fam.params, graph_rng);
    for (const ProcessSpec& proc : processes()) {
      if (proc.cycle_only && fam.key != "cycle") continue;
      ++pair;
      record(measure(proc, fam.key, g, {Rng(seed * 9176 + pair)},
                     steps_per_pair, chunk, 1));
    }
  }

  // ---- Latency-bound tier: bundle-width sweep on an out-of-cache CSR ----
  // n = 1e6 at r = 4 puts the CSR (~24 MB of slots + offsets) far past LLC;
  // each transition is a dependent DRAM miss, so single-walk throughput is
  // latency-bound, not bandwidth-bound. Interleaving W independent walks
  // round-robin (engine/bundle.hpp) keeps W misses in flight. Every walk
  // gets the SAME per-walk budget (latency-steps) regardless of width — NOT
  // total/W — because per-step cost is phase-dependent for the E-process
  // (the all-blue opening is the expensive part): equal per-walk budgets
  // keep the phase composition, and hence the per-step work, identical
  // across widths, so steps/sec is the directly comparable rate. Total work
  // therefore scales with W; `steps` in the output is the true total.
  {
    const Vertex lat_n =
        static_cast<Vertex>(cli.get_u64("latency-n", 1000000));
    const std::uint32_t lat_r = 4;
    const std::uint64_t lat_steps =
        cli.get_u64("latency-steps", quick ? 1000000 : 4000000);
    const std::uint64_t lat_reps = std::max<std::uint64_t>(
        1, cli.get_u64("latency-reps", 3));
    std::vector<std::uint64_t> widths = {1, 4, 8, 16};
    if (cli.has("bundle")) widths = parse_u64_list("bundle", cli.get("bundle", ""));

    std::printf("-- latency-bound tier: random-regular n=%u r=%u, "
                "%llu steps per interleaved walk, best of %llu --\n",
                lat_n, lat_r, static_cast<unsigned long long>(lat_steps),
                static_cast<unsigned long long>(lat_reps));
    Rng lat_graph_rng(seed);
    const Graph g = random_regular_pairing_connected(lat_n, lat_r, lat_graph_rng);
    // The tier is named by its n: 1000000 -> "regular-1m", 250000 -> "regular-250k".
    const std::string tier =
        "regular-" + (lat_n % 1000000 == 0 ? std::to_string(lat_n / 1000000) + "m"
                      : lat_n % 1000 == 0  ? std::to_string(lat_n / 1000) + "k"
                                           : std::to_string(lat_n));
    const std::vector<ProcessSpec> lat_procs = {
        {"srw", "srw", {}},
        {"eprocess-uniform", "eprocess", {{"rule", "uniform"}}},
    };
    for (const ProcessSpec& proc : lat_procs) {
      for (const std::uint64_t width : widths) {
        if (width == 0) throw std::invalid_argument("--bundle widths must be >= 1");
        ++pair;
        // Shared runners are noisy; each row is the best of `lat_reps`
        // identical runs, the standard way to read a throughput ceiling
        // through scheduling jitter. Per-trial private streams are derived
        // exactly like measure_cover's: one stream per interleaved walk,
        // consumed only by that walk.
        record(measure(proc, tier, g,
                       derive_streams(seed * 9176 + pair,
                                      static_cast<std::uint32_t>(width)),
                       lat_steps, chunk, lat_reps));
      }
    }
  }

  // bench_out/ already exists: open_csv created it.
  if (!write_json("bench_out/BENCH_throughput.json", quick, seed, chunk, results))
    return 1;
  return 0;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "error: %s\n", ex.what());
  return 1;
}
