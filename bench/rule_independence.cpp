// Theorem 1's remark: the cover-time bound is independent of the rule A
// used to select unvisited edges — "even if this choice is decided on-line
// by an adversary".
//
// Rows: mean vertex cover time of the E-process on random 4- and 6-regular
// graphs for each shipped rule (uniform / first-slot / last-slot /
// round-robin / adversarial prefer-visited / greedy prefer-unvisited),
// normalised by n. All rules should be Θ(n) with comparable constants.
#include "bench/common.hpp"
#include "covertime/experiment.hpp"
#include "engine/adapters.hpp"
#include "graph/generators.hpp"
#include "walks/rules.hpp"

using namespace ewalk;

int main(int argc, char** argv) {
  const auto cfg = bench::parse_config(argc, argv);
  bench::print_header(
      "Rule-A independence of the E-process vertex cover time",
      "Theorem 1 bound holds for any rule, even adversarial");

  const Vertex n = cfg.full ? 200000 : 50000;

  struct NamedRule {
    const char* label;
    std::function<std::unique_ptr<UnvisitedEdgeRule>(const Graph&)> make;
  };
  const std::vector<NamedRule> rules{
      {"uniform", [](const Graph&) { return std::make_unique<UniformRule>(); }},
      {"first-slot", [](const Graph&) { return std::make_unique<FirstSlotRule>(); }},
      {"last-slot", [](const Graph&) { return std::make_unique<LastSlotRule>(); }},
      {"round-robin",
       [](const Graph& g) { return std::make_unique<RoundRobinRule>(g.num_vertices()); }},
      {"adversary",
       [](const Graph&) { return std::make_unique<PreferVisitedEndpointRule>(); }},
      {"greedy",
       [](const Graph&) { return std::make_unique<PreferUnvisitedEndpointRule>(); }},
  };

  auto csv = bench::open_csv("rule_independence",
                             {"r", "n", "rule_index", "mean_cover", "ci95",
                              "normalised"});

  for (const std::uint32_t r : {4u, 6u}) {
    std::printf("r = %u, n = %u (%u trials)\n", r, n, cfg.trials);
    std::printf("  %-14s %14s %10s %10s\n", "rule", "C_V (mean)", "+/-95%", "C_V/n");
    const GraphFactory graphs = [n, r](Rng& rng) {
      return random_regular_connected(n, r, rng);
    };
    for (std::size_t i = 0; i < rules.size(); ++i) {
      RunRequest ec;
      ec.trials = cfg.trials;
      ec.threads = cfg.threads;
      ec.seed = cfg.seed * 1299709 + r * 7 + i;
      const ProcessFactory eprocess =
          [&make = rules[i].make](const Graph& g,
                                  Rng&) -> std::unique_ptr<WalkProcess> {
        return std::make_unique<EProcessHandle>(g, /*start=*/0, make(g));
      };
      const auto res = measure_cover(eprocess, graphs, ec);
      std::printf("  %-14s %14.0f %10.0f %10.3f\n", rules[i].label, res.stats.mean,
                  res.stats.ci95_halfwidth(), res.stats.mean / n);
      csv->row({static_cast<double>(r), static_cast<double>(n),
                static_cast<double>(i), res.stats.mean, res.stats.ci95_halfwidth(),
                res.stats.mean / n});
    }
    std::printf("\n");
  }
  std::printf("expect: all rules Theta(n) — normalised values within a small\n"
              "        constant band; adversary worst, greedy best.\n");
  return 0;
}
