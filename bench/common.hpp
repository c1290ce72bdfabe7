// Shared plumbing for the bench binaries: common CLI flags, stdout table
// formatting, and CSV persistence (every printed series is also written to
// ./bench_out/<name>.csv for re-plotting).
#pragma once

#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "covertime/experiment.hpp"
#include "engine/registry.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace ewalk::bench {

struct BenchConfig {
  std::uint32_t trials = 5;     ///< the paper averaged 5 experiments/point
  std::uint32_t threads = 0;    ///< resolved thread count (never 0 after parse)
  std::uint64_t seed = 1;
  bool full = false;            ///< paper-scale sizes (n up to 5*10^5)
};

// --threads defaults to 0 (all hardware threads) here; see
// resolve_cli_threads for the shared --threads / --pin semantics.
inline BenchConfig parse_config(int argc, char** argv) {
  const Cli cli(argc, argv);
  BenchConfig cfg;
  cfg.trials = static_cast<std::uint32_t>(cli.get_int("trials", cfg.trials));
  cfg.threads = resolve_cli_threads(cli, /*default_threads=*/0);
  cfg.seed = cli.get_u64("seed", cfg.seed);
  cfg.full = cli.get_bool("full", false);
  return cfg;
}

/// Opens bench_out/<name>.csv (creating the directory if needed).
inline std::unique_ptr<CsvWriter> open_csv(const std::string& name,
                                           std::vector<std::string> header) {
  std::filesystem::create_directories("bench_out");
  return std::make_unique<CsvWriter>("bench_out/" + name + ".csv", std::move(header));
}

/// Connected random r-regular graph factory for the sweep benches,
/// selected by name: "pairing" (pairing model + edge-swap repair — the
/// fast default) or "sw" (Steger–Wormald, the paper's reference generator).
inline GraphFactory regular_factory(const std::string& generator, Vertex n,
                                    std::uint32_t r) {
  if (generator == "pairing")
    return [n, r](Rng& rng) { return random_regular_pairing_connected(n, r, rng); };
  if (generator == "sw")
    return [n, r](Rng& rng) { return random_regular_connected(n, r, rng); };
  throw std::invalid_argument("--generator must be pairing or sw, got: " +
                              generator);
}

/// The --generator flag of the regular-graph sweep benches ("pairing" by
/// default), rejected by regular_factory's own check when unknown. Benches
/// read it before printing anything, so a bad name fails with no output.
inline std::string regular_generator(const Cli& cli) {
  std::string generator = cli.get("generator", "pairing");
  regular_factory(generator, 0, 0);
  return generator;
}

/// A ProcessFactory building registry process `name` with `params`.
inline ProcessFactory registry_process(std::string name, ParamMap params = {}) {
  return [name = std::move(name), params = std::move(params)](const Graph& g,
                                                              Rng& rng) {
    return ProcessRegistry::instance().create(name, g, params, rng);
  };
}

/// Cover-time statistics of `cfg.trials` walks on the shared graph `g`, one
/// process from `factory` per trial, driven by run_target_trials to `target`
/// on streams derived from `seed` (bit-identical for every --threads).
/// Trials that miss the target within `max_steps` count as `max_steps`.
inline SummaryStats cover_stats(const Graph& g, const ProcessFactory& factory,
                                CoverTarget target, const BenchConfig& cfg,
                                std::uint64_t seed, std::uint64_t max_steps) {
  RunRequest req;
  req.trials = cfg.trials;
  req.threads = cfg.threads;
  req.seed = seed;
  req.max_steps = max_steps;
  std::vector<double> samples;
  for (const TrialOutcome& trial :
       run_target_trials(req, TrialTarget(target), [&](Rng& rng) {
         return TrialSetup{nullptr, factory(g, rng)};
       }))
    samples.push_back(trial.sample());
  return summarize(samples);
}

inline void print_header(const char* title, const char* paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("paper: %s\n", paper_claim);
  std::printf("==============================================================\n");
}

}  // namespace ewalk::bench
