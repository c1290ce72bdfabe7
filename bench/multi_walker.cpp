// Multi-walker E-process scaling (extension beyond the paper): k cooperating
// walkers share the visited-edge state; one *system step* advances one
// walker. Columns report vertex cover time in system steps — perfect
// cooperation would keep the column flat in k (same total work), while the
// per-walker wall-clock time (cover/k) shows the parallel speed-up.
//
// Runs as one sweep (src/sweep/): every (k, trial) unit is a pool task with
// graph construction inside, per-trial streams a pure function of
// (--seed, point, trial). Results: bench_out/SWEEP_multi_walker.{json,csv}.
//
// Flags: --trials --seed --threads --full --generator pairing|sw
// (default pairing) --walkers k1,k2,...
#include <memory>

#include "bench/common.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"
#include "walks/multi_eprocess.hpp"
#include "walks/rules.hpp"

using namespace ewalk;

int main(int argc, char** argv) try {
  const auto cfg = bench::parse_config(
      argc, argv,
      {bench::kGeneratorFlag,
       {"walkers", ParamType::kString, "", {}, "walker counts k1,k2,..."}});
  const std::string generator = bench::regular_generator(cfg.flags);
  bench::print_header(
      "Multi-walker E-process scaling on 4-regular expanders",
      "extension: k walkers, shared blue/red state, round-robin system steps");

  const Vertex n = cfg.full ? 200000 : 50000;
  std::vector<std::uint64_t> ks{1, 2, 4, 8, 16};
  if (cfg.flags.has("walkers"))
    ks = parse_u64_list("walkers", cfg.flags.get("walkers", ""));

  std::vector<SweepPoint> points;
  for (const std::uint64_t k : ks) {
    SweepPoint point;
    point.label = std::string("k").append(std::to_string(k));
    point.params = {{"n", static_cast<double>(n)},
                    {"k", static_cast<double>(k)}};
    point.graph = bench::regular_factory(generator, n, 4);
    point.series.push_back(SweepSeriesSpec{
        "multi-eprocess",
        [k](const Graph& g, Rng&) -> std::unique_ptr<WalkProcess> {
          std::vector<Vertex> starts(k);
          for (std::uint64_t i = 0; i < k; ++i)
            starts[i] = static_cast<Vertex>((i * g.num_vertices()) / k);
          return std::make_unique<MultiEProcess>(
              g, std::move(starts), std::make_unique<UniformRule>());
        },
        CoverTarget::kVertices});
    points.push_back(std::move(point));
  }

  SweepConfig sc;
  sc.trials = cfg.trials;
  sc.threads = cfg.threads;
  sc.master_seed = cfg.seed;
  const SweepResult result = run_sweep("multi_walker", points, sc);

  std::printf("n = %u (%u trials per k, generator %s)\n", n, cfg.trials,
              generator.c_str());
  std::printf("%4s %14s %14s %10s\n", "k", "system steps", "steps/walker", "/n");
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const SweepSeriesResult& sr = result.points[i].series.front();
    std::printf("%4llu %14.0f %14.0f %10.3f\n",
                static_cast<unsigned long long>(ks[i]), sr.stats.mean,
                sr.stats.mean / static_cast<double>(ks[i]), sr.stats.mean / n);
  }
  std::printf("\nreading: flat 'system steps' == no contention penalty; the\n"
              "        'steps/walker' column is the parallel wall-clock gain.\n");
  const std::string json = write_sweep_json(result);
  const std::string csv = write_sweep_csv(result);
  print_sweep_timing_split(result);
  std::printf("wrote %s and %s\n", json.c_str(), csv.c_str());
  return 0;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "error: %s\n", ex.what());
  return 1;
}
