// Network patrol scenario.
//
// Motivation from the paper's related work ([16] Yanovski–Wagner–Bruckstein:
// "a distributed ant algorithm for efficiently patrolling a network"): a
// patrol agent must repeatedly visit every link of a data-centre-style
// network, detecting failures quickly. The relevant metrics are the time to
// first full sweep (edge cover) and the *revisit gap* — how stale any edge
// gets in the steady state.
//
// We compare four agents on an even-degree expander topology (union of
// Hamiltonian rings — a plausible structured overlay):
//   * random patrol (SRW),
//   * E-process patrol (prefers never-traversed links; random otherwise),
//   * rotor-router patrol (deterministic, settles into an Eulerian tour),
//   * Least-Used-First patrol (locally fair).
//
//   $ ./network_patrol [--n 5000] [--rings 2] [--seed 1]
#include <algorithm>
#include <cstdio>
#include <exception>
#include <vector>

#include "engine/driver.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "walks/eprocess.hpp"
#include "walks/locally_fair.hpp"
#include "walks/rotor.hpp"
#include "walks/rules.hpp"
#include "walks/srw.hpp"

namespace {

using namespace ewalk;

/// Steady-state staleness probe: run `horizon` further steps, recording for
/// each edge the largest gap between consecutive traversals (stale links are
/// patrol failures). The stepper abstracts over the walk types.
template <typename StepFn>
std::uint64_t max_revisit_gap(const Graph& g, StepFn&& stepper, std::uint64_t horizon) {
  std::vector<std::uint64_t> last(g.num_edges(), 0);
  std::uint64_t worst = 0;
  for (std::uint64_t t = 1; t <= horizon; ++t) {
    const EdgeId e = stepper();
    worst = std::max(worst, t - last[e]);
    last[e] = t;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    worst = std::max(worst, horizon - last[e] + 1);
  return worst;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace ewalk;
  const ParamSchema schema = {
      {"n", ParamType::kU32, "5000", {}, "nodes"},
      {"rings", ParamType::kU32, "2", {}, "Hamiltonian rings in the overlay"},
      {"seed", ParamType::kU64, "1", {}, "master seed"},
  };
  const Cli cli(argc, argv);
  cli.check({&schema});  // an undeclared flag fails before any output
  const ParamMap flags = cli.with_defaults(schema);
  const Vertex n = static_cast<Vertex>(flags.get_u64("n"));
  const std::uint32_t rings = static_cast<std::uint32_t>(flags.get_u64("rings"));
  Rng rng(flags.get_u64("seed"));

  const Graph g = hamiltonian_cycle_union(n, rings, rng);
  const std::uint64_t horizon = 20ull * g.num_edges();
  std::printf("overlay network: %u nodes, %u links (%u-regular)\n\n",
              g.num_vertices(), g.num_edges(), 2 * rings);
  std::printf("%-16s %16s %18s\n", "agent", "first full sweep", "max revisit gap");

  {
    SimpleRandomWalk walk(g, 0);
    run_until(walk, rng, EdgesCovered{}, 1ull << 42);
    const auto sweep = walk.cover().edge_cover_step();
    Rng probe_rng = rng.split();
    const auto gap = max_revisit_gap(
        g,
        [&]() {
          const Vertex at = walk.current();
          walk.step(probe_rng);
          // Recover traversed edge: find slot leading to new position. For
          // reporting only; ties among parallel edges are irrelevant here.
          for (const Slot& s : g.slots(at))
            if (s.neighbor == walk.current()) return s.edge;
          return EdgeId{0};
        },
        horizon);
    std::printf("%-16s %16llu %18llu\n", "random (SRW)",
                static_cast<unsigned long long>(sweep),
                static_cast<unsigned long long>(gap));
  }

  {
    UniformRule rule;
    EProcess walk(g, 0, rule);
    Rng walk_rng = rng.split();
    run_until(walk, walk_rng, EdgesCovered{}, 1ull << 42);
    const auto sweep = walk.cover().edge_cover_step();
    std::printf("%-16s %16llu %18s\n", "E-process",
                static_cast<unsigned long long>(sweep),
                "(falls back to SRW)");
  }

  {
    RotorRouter walk(g, 0);
    run_until(walk, EdgesCovered{}, 1ull << 42);
    const auto sweep = walk.cover().edge_cover_step();
    // After stabilisation the rotor tour is Eulerian: every edge exactly
    // twice (once per direction) per 2m steps => revisit gap <= 2m.
    std::vector<std::uint64_t> last(g.num_edges(), 0);
    std::uint64_t worst = 0;
    for (std::uint64_t t = 1; t <= horizon; ++t) {
      const Vertex at = walk.current();
      walk.step();
      for (const Slot& s : g.slots(at))
        if (s.neighbor == walk.current()) {
          worst = std::max(worst, t - last[s.edge]);
          last[s.edge] = t;
          break;
        }
    }
    std::printf("%-16s %16llu %18llu\n", "rotor-router",
                static_cast<unsigned long long>(sweep),
                static_cast<unsigned long long>(worst));
  }

  {
    LocallyFairWalk walk(g, 0, FairnessCriterion::kLeastUsedFirst);
    run_until(walk, EdgesCovered{}, 1ull << 42);
    const auto sweep = walk.cover().edge_cover_step();
    std::vector<std::uint64_t> last(g.num_edges(), 0);
    std::uint64_t worst = 0;
    for (std::uint64_t t = 1; t <= horizon; ++t) {
      const Vertex at = walk.current();
      walk.step();
      for (const Slot& s : g.slots(at))
        if (s.neighbor == walk.current()) {
          worst = std::max(worst, t - last[s.edge]);
          last[s.edge] = t;
          break;
        }
    }
    std::printf("%-16s %16llu %18llu\n", "least-used-first",
                static_cast<unsigned long long>(sweep),
                static_cast<unsigned long long>(worst));
  }

  std::printf(
      "\nreading: the E-process wins the first sweep (every step before\n"
      "exhaustion discovers a new link — sweep ~= m + epsilon); deterministic\n"
      "agents bound the steady-state revisit gap, the SRW does not.\n");
  return 0;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "error: %s\n", ex.what());
  return 1;
}
