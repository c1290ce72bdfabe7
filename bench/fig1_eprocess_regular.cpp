// Figure 1 reproduction: normalised vertex cover time C_V/n of the u.a.r.
// E-process on random d-regular graphs, d = 3..7, as a function of n.
//
// Paper's reading of the figure: even degrees (4, 6) are flat (Θ(n) cover);
// odd degrees grow like c·n·ln n with c ≈ 0.93 (d=3), 0.41 (d=5), 0.38
// (d=7). We print the same series plus a least-squares estimate of c for
// each degree (the paper picked c "by inspection").
//
// The whole degree × size grid runs as ONE sweep (src/sweep/): every
// (d, n, trial) unit is an independent pool task with graph construction
// inside the task, so parallelism spans the grid instead of one point's
// trials, and the per-trial rng streams make the samples identical for any
// --threads. Results land in bench_out/SWEEP_fig1_eprocess_regular.{json,csv}
// (schema: src/sweep/report.hpp; CI validates the JSON).
//
// Flags: --trials N --seed S --threads T --full (n up to 5*10^5, the
// paper's range) --generator pairing|sw (default pairing — the edge-swap
// generator that keeps large-n trial setup off the critical path; sw is the
// paper's Steger–Wormald reference) --degrees 3,4,5,6,7 --ns n1,n2,... —
// default sizes are laptop-CI friendly.
//
// --max-trials M (with --ci-width W, default 0.05) switches the sweep to
// adaptive trial counts: each (d, n) series runs --trials to M trials until
// its 95% CI half-width is within W of its mean.
//
// --gen-only skips the walks entirely and microbenches graph *generation*:
// per (d, n) point it reports edges/sec over --trials builds, then a footer
// with peak RSS, the generation retry counters, and the number of
// is_connected BFS calls the builds made. With --assert-no-gen-bfs the
// binary exits non-zero when that BFS count is not 0 — the nightly
// large-n smoke uses this to pin the connectivity-aware generation
// contract (docs/ARCHITECTURE.md) at paper scale.
#include <cmath>
#include <memory>

#include "bench/common.hpp"
#include "engine/adapters.hpp"
#include "graph/algorithms.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"
#include "util/mem.hpp"
#include "walks/rules.hpp"

using namespace ewalk;

namespace {

// Generation-only microbench: serial (clean per-build timing), streams
// derived exactly like the sweep's shared-graph role so a --gen-only build
// is bit-identical to the graph the full sweep would have walked.
int run_gen_only(const bench::BenchConfig& cfg, const std::string& generator,
                 const std::vector<std::uint64_t>& degrees,
                 const std::vector<std::uint64_t>& ns, bool assert_no_bfs) {
  std::printf("generation microbench: generator=%s, %u builds/point\n",
              generator.c_str(), cfg.trials);
  std::printf("%3s %9s %12s %10s %14s\n", "d", "n", "edges", "seconds",
              "edges/sec");
  const std::uint64_t bfs_before = connectivity_bfs_calls();
  reset_generation_counters();
  std::uint64_t point_index = 0;
  for (const std::uint64_t d : degrees) {
    for (const std::uint64_t n : ns) {
      const auto factory = bench::regular_factory(
          generator, static_cast<Vertex>(n), static_cast<std::uint32_t>(d));
      double seconds = 0.0;
      std::uint64_t edges = 0;
      for (std::uint32_t t = 0; t < cfg.trials; ++t) {
        Rng rng = sweep_stream(cfg.seed, point_index, t, 0);
        WallTimer timer;
        const Graph g = factory(rng);
        seconds += timer.seconds();
        edges += g.num_edges();
      }
      std::printf("%3llu %9llu %12llu %10.3f %14.0f\n",
                  static_cast<unsigned long long>(d),
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(edges), seconds,
                  seconds > 0 ? static_cast<double>(edges) / seconds : 0.0);
      ++point_index;
    }
  }
  const std::uint64_t bfs_calls = connectivity_bfs_calls() - bfs_before;
  const GenerationCounters gc = generation_counters();
  std::printf(
      "attempts: pairing %llu (%llu connectivity retries), "
      "sw %llu (%llu connectivity retries)\n",
      static_cast<unsigned long long>(gc.pairing_attempts),
      static_cast<unsigned long long>(gc.pairing_connectivity_retries),
      static_cast<unsigned long long>(gc.sw_attempts),
      static_cast<unsigned long long>(gc.sw_connectivity_retries));
  std::printf("is_connected BFS calls during generation: %llu\n",
              static_cast<unsigned long long>(bfs_calls));
  if (const std::uint64_t rss = peak_rss_bytes(); rss > 0)
    std::printf("peak RSS: %.1f MiB\n",
                static_cast<double>(rss) / (1024.0 * 1024.0));
  if (assert_no_bfs && bfs_calls != 0) {
    std::fprintf(stderr,
                 "error: --assert-no-gen-bfs: %llu is_connected BFS calls on "
                 "the generation path (want 0)\n",
                 static_cast<unsigned long long>(bfs_calls));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const auto cfg = bench::parse_config(
      argc, argv,
      {bench::kGeneratorFlag,
       {"ns", ParamType::kString, "", {}, "vertex counts n1,n2,..."},
       {"degrees", ParamType::kString, "", {}, "degrees d1,d2,..."},
       {"max-trials", ParamType::kU32, "", {}, "adaptive trial cap (0 = off)"},
       {"ci-width", ParamType::kDouble, "", {}, "adaptive target CI width"},
       {"bundle", ParamType::kU32, "", {}, "trials interleaved per task"},
       {"gen-only", ParamType::kBool, "", {}, "time generation only"},
       {"assert-no-gen-bfs", ParamType::kBool, "", {},
        "gen-only: fail if generation ran a BFS"}});
  const std::string generator = bench::regular_generator(cfg.flags);
  bench::print_header(
      "Figure 1: normalised E-process vertex cover time on d-regular graphs",
      "even d flat; odd d ~ c n ln n, c = 0.93 / 0.41 / 0.38 for d = 3/5/7");

  std::vector<std::uint64_t> ns =
      cfg.full ? std::vector<std::uint64_t>{100000, 200000, 300000, 400000, 500000}
               : std::vector<std::uint64_t>{25000, 50000, 100000, 200000};
  std::vector<std::uint64_t> degrees{3, 4, 5, 6, 7};
  if (cfg.flags.has("ns")) ns = parse_u64_list("ns", cfg.flags.get("ns", ""));
  if (cfg.flags.has("degrees"))
    degrees = parse_u64_list("degrees", cfg.flags.get("degrees", ""));

  if (cfg.flags.get_bool("gen-only", false))
    return run_gen_only(cfg, generator, degrees, ns,
                        cfg.flags.get_bool("assert-no-gen-bfs", false));

  std::vector<SweepPoint> points;
  for (const std::uint64_t d : degrees) {
    for (const std::uint64_t n : ns) {
      SweepPoint point;
      point.label = std::string("d").append(std::to_string(d)) + "-n" + std::to_string(n);
      point.params = {{"d", static_cast<double>(d)},
                      {"n", static_cast<double>(n)}};
      point.graph = bench::regular_factory(generator, static_cast<Vertex>(n),
                                           static_cast<std::uint32_t>(d));
      point.series.push_back(SweepSeriesSpec{
          "eprocess",
          [](const Graph& g, Rng&) -> std::unique_ptr<WalkProcess> {
            return std::make_unique<EProcessHandle>(
                g, /*start=*/0, std::make_unique<UniformRule>());
          },
          CoverTarget::kVertices});
      points.push_back(std::move(point));
    }
  }

  SweepConfig sc;
  sc.trials = cfg.trials;
  sc.threads = cfg.threads;
  sc.master_seed = cfg.seed;
  sc.max_trials = static_cast<std::uint32_t>(cfg.flags.get_u64("max-trials", 0));
  sc.ci_rel_target = cfg.flags.get_double("ci-width", sc.ci_rel_target);
  sc.bundle_width = static_cast<std::uint32_t>(cfg.flags.get_u64("bundle", 1));
  const SweepResult result = run_sweep("fig1_eprocess_regular", points, sc);

  std::printf("generator: %s\n", generator.c_str());
  std::printf("%3s %9s %14s %12s %14s\n", "d", "n", "C_V (mean)", "+/-95%",
              "C_V / n");
  std::size_t idx = 0;
  for (const std::uint64_t d : degrees) {
    std::vector<double> xs, ys;
    for (const std::uint64_t n : ns) {
      const SweepSeriesResult& sr = result.points[idx++].series.front();
      std::printf("%3llu %9llu %14.0f %12.0f %14.3f\n",
                  static_cast<unsigned long long>(d),
                  static_cast<unsigned long long>(n), sr.stats.mean,
                  sr.stats.ci95_halfwidth(),
                  sr.stats.mean / static_cast<double>(n));
      xs.push_back(static_cast<double>(n));
      ys.push_back(sr.stats.mean);
    }
    if (xs.size() >= 2) {
      const auto fit = fit_c_nlogn(xs, ys);
      std::printf(
          "  -> fit C_V/n = c ln n + b: c = %.3f, b = %.2f, R^2 = %.3f%s\n\n",
          fit.slope, fit.intercept, fit.r_squared,
          (d % 2 == 0) ? "  (even d: expect c ~ 0)" : "");
    }
  }
  const std::string json = write_sweep_json(result);
  const std::string csv = write_sweep_csv(result);
  print_sweep_timing_split(result);
  std::printf("wrote %s and %s\n", json.c_str(), csv.c_str());
  return 0;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "error: %s\n", ex.what());
  return 1;
}
