// Expander census: the structural side of the paper on real graphs.
//
// For a menu of graphs this example reports everything Theorem 1 and
// Theorem 3 care about: eigenvalue gap 1-λmax (lazy gap for bipartite),
// girth, certified ℓ-goodness lower bound, conductance bounds, mixing time
// estimate — then the predicted vs measured E-process cover time.
//
//   $ ./expander_census [--seed 3] [--trials 3]
#include <cmath>
#include <cstdio>
#include <exception>

#include "analysis/ell_good.hpp"
#include "analysis/girth.hpp"
#include "engine/driver.hpp"
#include "graph/generators.hpp"
#include "graph/lps.hpp"
#include "spectral/conductance.hpp"
#include "spectral/spectrum.hpp"
#include "util/cli.hpp"
#include "walks/eprocess.hpp"
#include "walks/rules.hpp"

namespace {

using namespace ewalk;

void census(const char* name, const Graph& g, std::uint32_t trials,
            std::uint64_t seed) {
  const auto spec = estimate_spectrum(g);
  const double gap = spec.gap() > 1e-9 ? spec.gap() : spec.lazy_gap();
  const std::uint32_t gi = girth(g);
  // Certified ℓ bound: density certificate at size 6 (cheap) + girth bound.
  const std::uint32_t ell = certified_ell_good(g, 6);
  const auto phi = conductance_bounds_from_lambda2(spec.lambda2);
  const double n = g.num_vertices();
  const double tmix = mixing_time_estimate(gap, g.num_vertices());

  double cover = 0;
  for (std::uint32_t t = 0; t < trials; ++t) {
    Rng rng(seed + t);
    UniformRule rule;
    EProcess walk(g, 0, rule);
    run_until(walk, rng, VertexCovered{}, 1ull << 42);
    cover += static_cast<double>(walk.cover().vertex_cover_step());
  }
  cover /= trials;

  // Theorem 1 shape: n + n log n / (ell * gap).
  const double predicted = n + n * std::log(n) / (ell * gap);
  std::printf("%-18s %7.0f %7u %5u %7.4f %6.2f..%-5.2f %9.0f %11.0f %11.0f\n",
              name, n, gi == kInfiniteGirth ? 0 : gi, ell, gap, phi.lower,
              phi.upper, tmix, predicted, cover);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace ewalk;
  const ParamSchema schema = {
      {"seed", ParamType::kU64, "3", {}, "master seed"},
      {"trials", ParamType::kU32, "3", {}, "E-process trials per graph"},
  };
  const Cli cli(argc, argv);
  cli.check({&schema});  // an undeclared flag fails before any output
  const ParamMap flags = cli.with_defaults(schema);
  const std::uint64_t seed = flags.get_u64("seed");
  const std::uint32_t trials = static_cast<std::uint32_t>(flags.get_u64("trials"));
  Rng rng(seed);

  std::printf("%-18s %7s %7s %5s %7s %12s %9s %11s %11s\n", "graph", "n",
              "girth", "ell", "gap", "phi in", "T_mix", "Thm1 shape",
              "measured");

  census("4-regular", random_regular_connected(10000, 4, rng), trials, seed);
  census("6-regular", random_regular_connected(10000, 6, rng), trials, seed);
  census("ham-union k=2", hamiltonian_cycle_union(10000, 2, rng), trials, seed);
  census("LPS X^{5,13}", lps_graph({5, 13}), trials, seed);
  census("LPS X^{5,29}", lps_graph({5, 29}), trials, seed);
  census("torus 100x100", torus_2d(100, 100), trials, seed);
  census("hypercube r=12", hypercube(12), trials, seed);

  std::printf(
      "\nreading: expanders (top rows) have constant gap and ell >= girth-ish,\n"
      "so the Theorem-1 shape is Theta(n) and the measured cover matches; the\n"
      "torus has vanishing gap — Theorem 1's hypothesis fails and cover grows.\n");
  return 0;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "error: %s\n", ex.what());
  return 1;
}
