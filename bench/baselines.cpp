// Related-work baselines (Section 1 of the paper): rotor-router (O(mD)
// cover), Random Walk with Choice RWC(d) (Avin–Krishnamachari: improvements
// on toroidal and geometric graphs), the unvisited-vertex-preferring walk
// (companion paper [4]), and the locally fair strategies of [5]
// (Least-Used-First covers in O(mD); Oldest-First can be catastrophically
// slow).
//
// Rows: vertex cover time of each process on a torus, a random geometric
// graph, and a random 4-regular graph, normalised by n.
#include "bench/common.hpp"
#include "covertime/experiment.hpp"
#include "engine/budget.hpp"
#include "engine/registry.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

using namespace ewalk;

namespace {

/// One table row: a registry process name plus its parameters.
struct ProcessSpec {
  const char* label;
  const char* name;
  ParamMap params;
};

double run_process(const ProcessSpec& spec, const Graph& g,
                   const bench::BenchConfig& cfg, std::uint64_t salt,
                   CsvWriter& csv, std::uint32_t graph_id) {
  const auto stats = bench::cover_stats(
      g, bench::registry_process(spec.name, spec.params), CoverTarget::kVertices,
      cfg, cfg.seed * 15485863 + salt, kUnlimitedSteps);
  std::printf("  %-16s %14.0f %10.3f\n", spec.label, stats.mean,
              stats.mean / g.num_vertices());
  csv.row({static_cast<double>(graph_id), static_cast<double>(salt), stats.mean,
           stats.mean / g.num_vertices()});
  return stats.mean;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = bench::parse_config(argc, argv);
  bench::print_header(
      "Baseline processes: vertex cover time across graph families",
      "rotor O(mD); RWC(d) beats SRW on torus/geometric; E-process beats all "
      "on even-degree expanders");

  const Vertex side = cfg.full ? 180 : 100;
  Rng setup(cfg.seed);
  const Graph torus = torus_2d(side, side);
  // Radius ~ sqrt(8 ln n / (pi n)) keeps the geometric graph connected whp.
  const Vertex gn = cfg.full ? 30000 : 10000;
  const double radius =
      std::sqrt(8.0 * std::log(static_cast<double>(gn)) / (3.14159 * gn));
  Graph geometric = random_geometric(gn, radius, setup);
  while (!is_connected(geometric)) geometric = random_geometric(gn, radius, setup);
  const Graph regular = random_regular_connected(cfg.full ? 100000 : 30000, 4, setup);

  auto csv = bench::open_csv("baselines",
                             {"graph_id", "process_id", "mean_cover", "normalised"});

  const std::vector<ProcessSpec> processes{
      {"srw", "srw", {}},
      {"rwc(2)", "rwc", {{"d", "2"}}},
      {"rwc(3)", "rwc", {{"d", "3"}}},
      {"vertex-walk", "vertexwalk", {}},
      {"eprocess", "eprocess", {}},
      {"rotor-router", "rotor", {}},
      {"least-used", "leastused", {}},
  };

  const std::vector<std::pair<const char*, const Graph*>> graphs{
      {"torus", &torus}, {"geometric", &geometric}, {"4-regular", &regular}};

  for (std::uint32_t gi = 0; gi < graphs.size(); ++gi) {
    const auto& [gname, g] = graphs[gi];
    std::printf("%s: n = %u, m = %u\n", gname, g->num_vertices(), g->num_edges());
    std::printf("  %-16s %14s %10s\n", "process", "C_V (mean)", "C_V/n");
    for (std::uint32_t pi = 0; pi < processes.size(); ++pi) {
      run_process(processes[pi], *g, cfg, pi, *csv, gi);
    }
    std::printf("\n");
  }
  std::printf("expect: rwc(d) < srw on torus/geometric (Avin–Krishnamachari);\n"
              "        eprocess smallest on the even-degree expander; rotor and\n"
              "        least-used deterministic and competitive.\n");
  return 0;
}
