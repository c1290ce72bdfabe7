// Section 1 hypercube claim: the E-process edge-covers H_r in Θ(n log n),
// beating the SRW's Θ(n log² n) — the example where the paper's bound (3)
// is tight but Orenshtein–Shinkar's bound (2) is not.
//
// Rows: r, n = 2^r, m = n r / 2, E-process C_E, SRW C_E, and the
// normalisations C_E/(n log n) (should be flat for the E-process) and
// C_E/(n log² n) (should be flat for the SRW).
#include <cmath>

#include "bench/common.hpp"
#include "covertime/experiment.hpp"
#include "graph/generators.hpp"

using namespace ewalk;

int main(int argc, char** argv) {
  const auto cfg = bench::parse_config(argc, argv);
  bench::print_header(
      "Hypercube H_r edge cover: E-process vs SRW",
      "C_E(E-process) = Theta(n log n) vs C_E(SRW) = Theta(n log^2 n)");

  const std::vector<std::uint32_t> rs = cfg.full
                                            ? std::vector<std::uint32_t>{10, 12, 14, 16}
                                            : std::vector<std::uint32_t>{10, 11, 12, 13};

  auto csv = bench::open_csv("hypercube_edge_cover",
                             {"r", "n", "m", "eprocess_ce", "srw_ce",
                              "e_over_nlogn", "srw_over_nlog2n", "ratio"});

  std::printf("%3s %8s %9s %13s %13s %12s %14s %7s\n", "r", "n", "m",
              "C_E(E)", "C_E(SRW)", "E/(n ln n)", "SRW/(n ln^2 n)", "ratio");
  for (const std::uint32_t r : rs) {
    const Graph g = hypercube(r);
    const double n = g.num_vertices();
    const double m = g.num_edges();

    const auto ep = bench::cover_stats(g, bench::registry_process("eprocess"),
                                       CoverTarget::kEdges, cfg,
                                       cfg.seed * 104729 + r, 1ull << 42);
    const auto srw = bench::cover_stats(g, bench::registry_process("srw"),
                                        CoverTarget::kEdges, cfg,
                                        cfg.seed * 104729 + r + 500, 1ull << 42);

    const double ln_n = std::log(n);
    const double e_norm = ep.mean / (n * ln_n);
    const double s_norm = srw.mean / (n * ln_n * ln_n);
    std::printf("%3u %8.0f %9.0f %13.0f %13.0f %12.3f %14.3f %7.2f\n", r, n, m,
                ep.mean, srw.mean, e_norm, s_norm, srw.mean / ep.mean);
    csv->row({static_cast<double>(r), n, m, ep.mean, srw.mean, e_norm, s_norm,
              srw.mean / ep.mean});
  }
  std::printf("\nexpect: E/(n ln n) flat; SRW/(n ln^2 n) flat; ratio grows ~ ln n.\n");
  return 0;
}
