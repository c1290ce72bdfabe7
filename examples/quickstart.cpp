// Quickstart: build an even-degree expander, run the E-process, and compare
// its cover time with a simple random walk.
//
//   $ ./quickstart [--n 20000] [--r 4] [--seed 1]
//
// This is the 60-second tour of the library's public API:
//   1. generate a graph           (ewalk::random_regular_connected)
//   2. pick a rule A              (ewalk::UniformRule — the paper's u.a.r.)
//   3. run the walk               (ewalk::EProcess)
//   4. read off the cover time    (walk.cover().vertex_cover_step())
#include <cmath>
#include <cstdio>
#include <exception>

#include "engine/driver.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "walks/eprocess.hpp"
#include "walks/rules.hpp"
#include "walks/srw.hpp"

int main(int argc, char** argv) try {
  using namespace ewalk;
  const ParamSchema schema = {
      {"n", ParamType::kU32, "20000", {}, "vertices"},
      {"r", ParamType::kU32, "4", {}, "degree"},
      {"seed", ParamType::kU64, "1", {}, "master seed"},
  };
  const Cli cli(argc, argv);
  cli.check({&schema});  // an undeclared flag fails before any output
  const ParamMap flags = cli.with_defaults(schema);
  const Vertex n = static_cast<Vertex>(flags.get_u64("n"));
  const std::uint32_t r = static_cast<std::uint32_t>(flags.get_u64("r"));
  Rng rng(flags.get_u64("seed"));

  std::printf("generating a random %u-regular graph on %u vertices...\n", r, n);
  const Graph g = random_regular_connected(n, r, rng);
  std::printf("  n = %u, m = %u, even degrees: %s\n", g.num_vertices(),
              g.num_edges(), g.all_degrees_even() ? "yes" : "no");

  // The E-process: prefer unvisited edges (rule A = uniform at random),
  // walk randomly when none remain at the current vertex.
  UniformRule rule;
  EProcess eprocess(g, /*start=*/0, rule);
  run_until(eprocess, rng, VertexCovered{}, /*max_steps=*/1ull << 40);
  std::printf("\nE-process vertex cover time:  %12llu  (%.2f per vertex)\n",
              static_cast<unsigned long long>(eprocess.cover().vertex_cover_step()),
              static_cast<double>(eprocess.cover().vertex_cover_step()) / n);
  std::printf("  of which blue (unvisited-edge) steps: %llu, red (random) steps: %llu\n",
              static_cast<unsigned long long>(eprocess.blue_steps()),
              static_cast<unsigned long long>(eprocess.red_steps()));

  // Baseline: the simple random walk needs Ω(n log n).
  SimpleRandomWalk srw(g, 0);
  run_until(srw, rng, VertexCovered{}, 1ull << 40);
  const double cv_srw = static_cast<double>(srw.cover().vertex_cover_step());
  std::printf("SRW vertex cover time:        %12.0f  (%.2f per vertex, %.2f n ln n)\n",
              cv_srw, cv_srw / n, cv_srw / (n * std::log(static_cast<double>(n))));

  std::printf("\nspeed-up: %.1fx", cv_srw / eprocess.cover().vertex_cover_step());
  if (r % 2 == 0) {
    std::printf("  (Theorem 1: even-degree expanders are covered in Theta(n))\n");
  } else {
    std::printf("  (odd degree: expect ~c n ln n, see Figure 1 of the paper)\n");
  }
  return 0;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "error: %s\n", ex.what());
  return 1;
}
