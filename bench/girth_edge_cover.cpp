// Theorem 3: for even-degree graphs of girth g,
//   C_E(E-process) = O(m + m/(1-λmax)^2 (log n / g + log Δ)),
// so *high-girth* even-degree expanders (the paper's title) have edge cover
// time O(n + n log n / g).
//
// We compare, at matched degree 6 and matched order, the three regimes the
// theorem's two factors (1/(1-λmax)² and log n/g) distinguish:
//   * LPS Ramanujan graphs X^{5,q} — girth Θ(log n), optimal gap: both
//     factors benign, C_E ≈ m;
//   * union of 3 random Hamiltonian cycles — girth 3 whp but short cycles
//     are rare and vertex-disjoint: Corollary 4's habitat, C_E = O(ωn)
//     despite the girth term;
//   * circulant C_n(1,2,3) — girth 3 *and* vanishing eigenvalue gap
//     (ring-like): exhibits the 1/(1-λmax)² blow-up.
// Rows report girth, the gap (lazy gap for bipartite LPS), C_E, C_E/m and
// the Theorem-3 normalisation C_E / (m + m ln n / g).
#include <cmath>

#include "analysis/girth.hpp"
#include "bench/common.hpp"
#include "covertime/experiment.hpp"
#include "graph/generators.hpp"
#include "graph/lps.hpp"
#include "spectral/spectrum.hpp"

using namespace ewalk;

namespace {

void report(const char* family, const Graph& g, const bench::BenchConfig& cfg,
            CsvWriter& csv) {
  const double n = g.num_vertices();
  const double m = g.num_edges();
  const std::uint32_t gi = girth(g);
  const auto spec = estimate_spectrum(g);
  // Bipartite graphs (PGL-case LPS) have λn = -1; the paper then uses the
  // lazy walk, so report the lazy gap.
  const double gap = spec.gap() > 1e-9 ? spec.gap() : spec.lazy_gap();

  const auto ce = bench::cover_stats(
      g, bench::registry_process("eprocess"), CoverTarget::kEdges, cfg,
      cfg.seed * 31337 + g.num_vertices(), 1ull << 42);

  const double thm3_norm = ce.mean / (m + m * std::log(n) / gi);
  std::printf("%-12s %8.0f %9.0f %6u %7.4f %13.0f %8.3f %10.3f\n", family, n, m,
              gi, gap, ce.mean, ce.mean / m, thm3_norm);
  csv.row({n, m, static_cast<double>(gi), gap, ce.mean, ce.mean / m, thm3_norm});
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = bench::parse_config(argc, argv);
  bench::print_header(
      "Theorem 3: edge cover vs girth on even-degree 6-regular graphs",
      "C_E = O(m + m/(1-lmax)^2 (log n / g + log D)); high girth => ~linear");

  auto csv = bench::open_csv("girth_edge_cover",
                             {"n", "m", "girth", "gap", "edge_cover", "ce_over_m",
                              "thm3_normalised"});

  std::printf("%-12s %8s %9s %6s %7s %13s %8s %10s\n", "family", "n", "m",
              "girth", "gap", "C_E", "C_E/m", "Thm3-norm");

  const std::vector<std::uint32_t> qs =
      cfg.full ? std::vector<std::uint32_t>{13, 17, 29, 37}
               : std::vector<std::uint32_t>{13, 17, 29};
  for (const std::uint32_t q : qs) {
    const Graph g = lps_graph({5, q});
    report("LPS X^{5,q}", g, cfg, *csv);

    // Matched-order low-girth comparators.
    const Vertex n = g.num_vertices();
    report("circulant", circulant(n, {1, 2, 3}), cfg, *csv);
    Rng rng(cfg.seed * 97 + q);
    report("ham-union", hamiltonian_cycle_union(n, 3, rng), cfg, *csv);
    std::printf("\n");
  }
  std::printf(
      "expect: C_E/m near 1 for high-girth LPS; also ~1 for ham-union (Cor. 4:\n"
      "        sparse disjoint short cycles are harmless); blow-up for the\n"
      "        circulant, whose vanishing gap triggers the 1/(1-lmax)^2 factor.\n");
  return 0;
}
