// Equation (3) / Observation 12 / Corollary 4: edge cover time of the
// E-process.
//
//   m <= C_E(E-process) <= m + C_V(SRW)            (eq. 3, per instance)
//   t_R < t < t_R + m                              (Obs. 12)
//   C_E = O(ω n) for random r-regular, r >= 4 even (Cor. 4)
//
// Rows report C_E, its per-m normalisation, the sandwich bounds measured on
// the same graph instance, and C_E/(n ln ln n) (any ω → ∞ works; ln ln n is
// the conventional slow function).
#include <cmath>

#include "bench/common.hpp"
#include "covertime/experiment.hpp"
#include "engine/driver.hpp"
#include "graph/generators.hpp"
#include "walks/eprocess.hpp"
#include "walks/rules.hpp"
#include "walks/srw.hpp"

using namespace ewalk;

int main(int argc, char** argv) {
  const auto cfg = bench::parse_config(argc, argv);
  bench::print_header(
      "Edge cover time of the E-process on even-degree random regular graphs",
      "m <= C_E <= m + C_V(SRW) (eq. 3); C_E = O(omega n) (Cor. 4)");

  const std::vector<Vertex> ns = cfg.full
                                     ? std::vector<Vertex>{20000, 40000, 80000}
                                     : std::vector<Vertex>{5000, 10000, 20000};

  auto csv = bench::open_csv(
      "edge_cover_bounds",
      {"r", "n", "m", "edge_cover", "srw_vertex_cover", "upper_bound",
       "ce_over_m", "ce_over_n_lnln", "red_steps", "blue_steps"});

  std::printf("%3s %8s %9s %12s %12s %12s %9s %12s\n", "r", "n", "m", "C_E",
              "C_V(SRW)", "m+C_V(SRW)", "C_E/m", "C_E/(n lnln)");
  for (const std::uint32_t r : {4u, 6u}) {
    for (const Vertex n : ns) {
      // Per trial: one graph instance, measure all quantities on it so the
      // sandwich is checked instance-wise.
      double ce_sum = 0, cv_sum = 0, red_sum = 0, blue_sum = 0;
      std::uint64_t m = 0;
      bool sandwich_ok = true;
      auto streams = derive_streams(cfg.seed * 7907 + r * 17 + n, cfg.trials);
      for (std::uint32_t t = 0; t < cfg.trials; ++t) {
        Rng& rng = streams[t];
        const Graph g = random_regular_connected(n, r, rng);
        m = g.num_edges();
        UniformRule rule;
        EProcess ep(g, 0, rule);
        if (!run_until(ep, rng, EdgesCovered{}, 1ull << 40))
          sandwich_ok = false;
        const double ce = static_cast<double>(ep.cover().edge_cover_step());
        SimpleRandomWalk srw(g, 0);
        run_until(srw, rng, VertexCovered{}, 1ull << 40);
        const double cv = static_cast<double>(srw.cover().vertex_cover_step());
        ce_sum += ce;
        cv_sum += cv;
        red_sum += static_cast<double>(ep.red_steps());
        blue_sum += static_cast<double>(ep.blue_steps());
        if (ce < static_cast<double>(m)) sandwich_ok = false;
        // Obs 12: t_R < t < t_R + m.
        if (!(ep.red_steps() < ep.steps() &&
              ep.steps() < ep.red_steps() + m + 1)) {
          sandwich_ok = false;
        }
      }
      const double ce = ce_sum / cfg.trials;
      const double cv = cv_sum / cfg.trials;
      const double lnln = std::log(std::log(static_cast<double>(n)));
      std::printf("%3u %8u %9llu %12.0f %12.0f %12.0f %9.3f %12.2f%s\n", r, n,
                  static_cast<unsigned long long>(m), ce, cv, m + cv, ce / m,
                  ce / (n * lnln), sandwich_ok ? "" : "  [SANDWICH VIOLATED]");
      csv->row({static_cast<double>(r), static_cast<double>(n),
                static_cast<double>(m), ce, cv, m + cv, ce / m, ce / (n * lnln),
                red_sum / cfg.trials, blue_sum / cfg.trials});
    }
    std::printf("\n");
  }
  std::printf("expect: C_E/m modestly above 1 and flat in n (Cor. 4); sandwich holds.\n");
  return 0;
}
