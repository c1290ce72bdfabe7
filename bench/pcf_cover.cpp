// Walks on PCF-evolving graphs: E-process vs SRW vertex cover while the
// environment assembles around the walker.
//
// Each trial starts from an EMPTY graph on n vertices; the potential edges
// of a connected random 4-regular base open at rate 1 and components freeze
// at rate alpha (Mottram's percolation-with-constant-freezing). The walker
// advances the PCF clock by 1/n per step, so one unit of graph time is n
// walk steps. Sweeping alpha spans the regime transition: at alpha -> 0
// essentially every base edge opens and cover completes near the static
// cover time plus the edge-arrival delay; as alpha grows, components freeze
// before the open subgraph connects, some vertices are stranded forever,
// and trials censor at the step budget (counted in uncovered_trials — the
// censored mean IS the observable there, as in survival analysis).
//
// Rows: for alpha in the sweep and a range of n, the mean (censored) vertex
// cover time of pcf-srw and pcf-eprocess on the same evolving schedule
// family, plus uncovered-trial counts. Results:
// bench_out/SWEEP_pcf_cover.{json,csv}.
//
// Flags: --trials --seed --threads --full --generator pairing|sw
// --ns n1,n2,... --alphas a1,a2,...
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "engine/pcf_process.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"

using namespace ewalk;

namespace {

std::vector<double> parse_double_list(const std::string& spec) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    out.push_back(parse_double("alphas", spec.substr(pos, comma - pos)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// One PCF process factory: the schedule stream is split off the trial's
// walk stream, exactly as the registry entries do, so bench samples match
// `ewalk --process pcf-*` samples for the same (seed, point, trial).
template <class WalkT>
ProcessFactory pcf_factory(double alpha) {
  return [alpha](const Graph& g, Rng& rng) -> std::unique_ptr<WalkProcess> {
    Rng schedule_rng = rng.split();
    const double dt = 1.0 / static_cast<double>(g.num_vertices());
    return std::make_unique<PcfProcess<WalkT>>(g, /*start=*/0, alpha, dt,
                                               schedule_rng);
  };
}

}  // namespace

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  const auto cfg = bench::parse_config(argc, argv);
  const std::string generator = bench::regular_generator(cli);
  bench::print_header(
      "E-process vs SRW vertex cover on PCF-evolving graphs (4-regular base)",
      "edges open at rate 1, components freeze at rate alpha; dt = 1/n");

  std::vector<std::uint64_t> ns =
      cfg.full ? std::vector<std::uint64_t>{10000, 20000, 40000}
               : std::vector<std::uint64_t>{2000, 5000};
  if (cli.has("ns")) ns = parse_u64_list("ns", cli.get("ns", ""));
  std::vector<double> alphas{0.0001, 0.001, 0.01};
  if (cli.has("alphas")) alphas = parse_double_list(cli.get("alphas", ""));
  constexpr std::uint32_t kDegree = 4;

  std::vector<SweepPoint> points;
  for (const double alpha : alphas) {
    for (const std::uint64_t n : ns) {
      SweepPoint point;
      point.label = "a" + std::to_string(alpha) + "-n" + std::to_string(n);
      point.params = {{"alpha", alpha},
                      {"n", static_cast<double>(n)},
                      {"r", static_cast<double>(kDegree)}};
      point.graph =
          bench::regular_factory(generator, static_cast<Vertex>(n), kDegree);
      point.series = {
          SweepSeriesSpec{"pcf-srw", pcf_factory<DynamicSrw>(alpha),
                          CoverTarget::kVertices},
          SweepSeriesSpec{"pcf-eprocess", pcf_factory<DynamicEProcess>(alpha),
                          CoverTarget::kVertices},
      };
      points.push_back(std::move(point));
    }
  }

  SweepConfig sc;
  sc.trials = cfg.trials;
  sc.threads = cfg.threads;
  sc.master_seed = cfg.seed;
  const SweepResult result = run_sweep("pcf_cover", points, sc);

  std::printf("base generator: %s (one shared base per trial)\n",
              generator.c_str());
  std::printf("%10s %8s %13s %5s %13s %5s %8s\n", "alpha", "n", "pcf-srw",
              "unc", "pcf-eproc", "unc", "ratio");
  std::size_t idx = 0;
  for (const double alpha : alphas) {
    for (const std::uint64_t n : ns) {
      const SweepPointResult& point = result.points[idx++];
      const SweepSeriesResult& srw = point.series[0];
      const SweepSeriesResult& ep = point.series[1];
      std::printf("%10.4g %8llu %13.0f %5u %13.0f %5u %8.2f\n", alpha,
                  static_cast<unsigned long long>(n), srw.stats.mean,
                  srw.uncovered_trials, ep.stats.mean, ep.uncovered_trials,
                  srw.stats.mean / ep.stats.mean);
    }
    std::printf("\n");
  }
  std::printf(
      "expect: small alpha ~ static cover + edge-arrival delay, few censored\n"
      "        trials; larger alpha strands vertices and censors at budget.\n");
  const std::string json = write_sweep_json(result);
  const std::string csv = write_sweep_csv(result);
  print_sweep_timing_split(result);
  std::printf("wrote %s and %s\n", json.c_str(), csv.c_str());
  return 0;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "error: %s\n", ex.what());
  return 1;
}
