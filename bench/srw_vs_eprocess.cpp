// Theorem 1 / Corollary 2 / Theorem 5: on even-degree random regular graphs
// the E-process covers in Θ(n) while *every* reversible random walk needs
// Ω(n log n) — a speed-up of Ω(log n).
//
// Rows: for r in {4, 6} and a sweep of n, the mean vertex cover time of the
// SRW, a weighted random walk (random edge weights — still Ω(n log n) by
// Theorem 5), and the E-process, plus the SRW/E-process ratio and the
// Theorem-5 lower bound (n/4) log(n/2) that both reversible walks must obey.
//
// Runs as one sweep (src/sweep/): each (r, n, trial) unit builds ONE
// random regular graph inside its pool task and drives all three
// processes on that same instance — a genuine head-to-head per instance,
// and a third of the generation work of the per-process harness it
// replaces. Results: bench_out/SWEEP_srw_vs_eprocess.{json,csv}.
//
// Flags: --trials --seed --threads --full --generator pairing|sw
// (default pairing) --ns n1,n2,...
#include <cmath>
#include <memory>

#include "bench/common.hpp"
#include "engine/adapters.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"
#include "walks/rules.hpp"
#include "walks/srw.hpp"
#include "walks/weighted.hpp"

using namespace ewalk;

int main(int argc, char** argv) try {
  const auto cfg = bench::parse_config(
      argc, argv,
      {bench::kGeneratorFlag,
       {"ns", ParamType::kString, "", {}, "vertex counts n1,n2,..."}});
  const std::string generator = bench::regular_generator(cfg.flags);
  bench::print_header(
      "SRW vs weighted walk vs E-process vertex cover (r-regular, r even)",
      "C_V(E) = Theta(n); C_V(any reversible walk) >= (n/4) log(n/2)");

  std::vector<std::uint64_t> ns =
      cfg.full ? std::vector<std::uint64_t>{20000, 40000, 80000, 160000}
               : std::vector<std::uint64_t>{5000, 10000, 20000, 40000};
  if (cfg.flags.has("ns")) ns = parse_u64_list("ns", cfg.flags.get("ns", ""));
  const std::vector<std::uint64_t> degrees{4, 6};

  std::vector<SweepPoint> points;
  for (const std::uint64_t r : degrees) {
    for (const std::uint64_t n : ns) {
      SweepPoint point;
      point.label = std::string("r").append(std::to_string(r)) + "-n" + std::to_string(n);
      point.params = {{"r", static_cast<double>(r)},
                      {"n", static_cast<double>(n)}};
      point.graph = bench::regular_factory(generator, static_cast<Vertex>(n),
                                           static_cast<std::uint32_t>(r));
      point.series = {
          SweepSeriesSpec{"srw",
                          [](const Graph& g, Rng&) -> std::unique_ptr<WalkProcess> {
                            return std::make_unique<SimpleRandomWalk>(g, 0);
                          },
                          CoverTarget::kVertices},
          // Weighted walk: uniform(0.5, 2.0) edge weights — Theorem 5 says
          // the Ω(n log n) bound is weight-independent.
          SweepSeriesSpec{"weighted",
                          [](const Graph& g, Rng& rng) -> std::unique_ptr<WalkProcess> {
                            std::vector<double> w(g.num_edges());
                            for (double& x : w) x = 0.5 + 1.5 * rng.uniform_real();
                            return std::make_unique<WeightedRandomWalk>(g, 0, w);
                          },
                          CoverTarget::kVertices},
          SweepSeriesSpec{"eprocess",
                          [](const Graph& g, Rng&) -> std::unique_ptr<WalkProcess> {
                            return std::make_unique<EProcessHandle>(
                                g, /*start=*/0, std::make_unique<UniformRule>());
                          },
                          CoverTarget::kVertices},
      };
      points.push_back(std::move(point));
    }
  }

  SweepConfig sc;
  sc.trials = cfg.trials;
  sc.threads = cfg.threads;
  sc.master_seed = cfg.seed;
  const SweepResult result = run_sweep("srw_vs_eprocess", points, sc);

  std::printf("generator: %s (one shared graph per trial)\n", generator.c_str());
  std::printf("%3s %8s %13s %13s %13s %8s %13s\n", "r", "n", "SRW", "weighted",
              "E-process", "ratio", "Thm5 bound");
  std::size_t idx = 0;
  for (const std::uint64_t r : degrees) {
    for (const std::uint64_t n : ns) {
      const SweepPointResult& point = result.points[idx++];
      const double srw = point.series[0].stats.mean;
      const double weighted = point.series[1].stats.mean;
      const double ep = point.series[2].stats.mean;
      const double nd = static_cast<double>(n);
      const double bound = nd / 4.0 * std::log(nd / 2.0);
      std::printf("%3llu %8llu %13.0f %13.0f %13.0f %8.2f %13.0f\n",
                  static_cast<unsigned long long>(r),
                  static_cast<unsigned long long>(n), srw, weighted, ep,
                  srw / ep, bound);
    }
    std::printf("\n");
  }
  std::printf("expect: ratio grows ~ log n; SRW and weighted >= Thm5 bound;\n"
              "        E-process mean within a small constant of n.\n");
  const std::string json = write_sweep_json(result);
  const std::string csv = write_sweep_csv(result);
  print_sweep_timing_split(result);
  std::printf("wrote %s and %s\n", json.c_str(), csv.c_str());
  return 0;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "error: %s\n", ex.what());
  return 1;
}
