// Section 5: why odd degree is slow. On 3-regular graphs the blue walk
// leaves behind isolated blue stars; the red walk must coupon-collect them,
// giving the observed ~0.93 n ln n cover time (Figure 1's d=3 series).
//
// Rows per n: mean vertex cover normalised by n ln n (paper: 0.93), the
// fraction of vertices discovered as isolated-star centers (paper's
// idealised tree-like estimate: 1/8; measured on finite graphs: ~0.05), and
// the peak simultaneous star census.
#include <cmath>

#include "analysis/blue.hpp"
#include "bench/common.hpp"
#include "graph/generators.hpp"
#include "util/stats.hpp"
#include "walks/eprocess.hpp"
#include "walks/rules.hpp"

using namespace ewalk;

namespace {

struct StarTrial {
  double cover = 0;
  double stars_discovered = 0;
  double peak_census = 0;
};

StarTrial run_trial(Vertex n, std::uint32_t d, Rng& rng) {
  const Graph g = random_regular_connected(n, d, rng);
  UniformRule rule;
  EProcess walk(g, 0, rule);
  StarTrial out;
  std::uint32_t covered = walk.cover().vertices_covered();
  std::uint64_t next_census = n / 10;
  while (!walk.cover().all_vertices_covered()) {
    const Vertex prev = walk.current();
    const StepColor color = walk.step(rng);
    if (walk.steps() >= next_census) {
      next_census += n / 10;
      const auto report = analyze_blue(g, walk.cover().edge_visited_flags(),
                                       walk.cover().visit_counts());
      out.peak_census = std::max(
          out.peak_census, static_cast<double>(report.isolated_unvisited_stars));
    }
    if (walk.cover().vertices_covered() == covered) continue;
    covered = walk.cover().vertices_covered();
    const Vertex v = walk.current();
    if (color != StepColor::kBlue || walk.blue_degree(v) != g.degree(v) - 1 ||
        walk.blue_degree(prev) != 0) {
      continue;
    }
    bool star = true;
    for (const Slot& s : g.slots(v)) {
      if (walk.cover().edge_visited(s.edge)) continue;
      if (walk.blue_degree(s.neighbor) != 1) {
        star = false;
        break;
      }
    }
    if (star) ++out.stars_discovered;
  }
  out.cover = static_cast<double>(walk.cover().vertex_cover_step());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = bench::parse_config(argc, argv);
  bench::print_header(
      "Section 5: isolated blue stars on odd-degree (3-regular) graphs",
      "|I| ~ c n stars force coupon-collector cover ~ 0.93 n ln n");

  const std::vector<Vertex> ns = cfg.full
                                     ? std::vector<Vertex>{50000, 100000, 200000}
                                     : std::vector<Vertex>{20000, 40000, 80000};

  auto csv = bench::open_csv("odd_degree_stars",
                             {"n", "cover_over_nlogn", "star_discovery_fraction",
                              "peak_census_fraction"});

  std::printf("%9s %16s %18s %16s\n", "n", "C_V/(n ln n)", "stars/n (discv.)",
              "peak census/n");
  for (const Vertex n : ns) {
    std::vector<double> covers, stars, peaks;
    auto streams = derive_streams(cfg.seed * 52361 + n, cfg.trials);
    for (std::uint32_t t = 0; t < cfg.trials; ++t) {
      const auto trial = run_trial(n, 3, streams[t]);
      covers.push_back(trial.cover);
      stars.push_back(trial.stars_discovered);
      peaks.push_back(trial.peak_census);
    }
    const double c = summarize(covers).mean / (n * std::log(static_cast<double>(n)));
    const double sf = summarize(stars).mean / n;
    const double pf = summarize(peaks).mean / n;
    std::printf("%9u %16.3f %18.4f %16.4f\n", n, c, sf, pf);
    csv->row({static_cast<double>(n), c, sf, pf});
  }
  std::printf("\nexpect: C_V/(n ln n) ~ 0.93 (paper's d=3 constant); star\n"
              "        discovery fraction Theta(1) (paper's idealisation: 1/8).\n");
  return 0;
}
