// Shared plumbing for the bench binaries: common CLI flags, stdout table
// formatting, and CSV persistence (every printed series is also written to
// ./bench_out/<name>.csv for re-plotting).
#pragma once

#include <cstdio>
#include <cstdlib>
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
  std::uint32_t trials;   ///< the paper averaged 5 experiments/point
  std::uint32_t threads;  ///< resolved thread count (never 0 after parse)
  std::uint64_t seed;
  bool full;              ///< paper-scale sizes (n up to 5*10^5)
  ParamMap flags;         ///< every flag as given, the bench's own included
};

/// The flags every sweep-style bench reads. --threads defaults to 0 (all
/// hardware threads) here; see resolve_cli_threads for the shared
/// --threads / --pin semantics.
inline const ParamSchema& common_flags() {
  static const ParamSchema flags = {
      {"trials", ParamType::kU32, "5", {}, "trials per point"},
      {"threads", ParamType::kU32, "0", {}, "worker threads (0 = all hardware)"},
      {"pin", ParamType::kBool, "false", {}, "pin scheduler workers to CPUs (Linux)"},
      {"seed", ParamType::kU64, "1", {}, "master seed"},
      {"full", ParamType::kBool, "false", {}, "paper-scale sizes"},
  };
  return flags;
}

/// --generator of the regular-graph sweep benches (see regular_generator).
inline const ParamSpec kGeneratorFlag{"generator", ParamType::kString, "pairing",
                                      {}, "regular-graph generator: pairing or sw"};

/// Parses argv against common_flags() and the bench's own `extra` flags.
/// An undeclared flag, a bad value or a stray word prints "error: ..." on
/// stderr and exits 1 before the bench prints anything.
inline BenchConfig parse_config(int argc, char** argv,
                                const ParamSchema& extra = {}) {
  try {
    const Cli cli(argc, argv);
    cli.check({&common_flags(), &extra});
    const ParamMap common = cli.with_defaults(common_flags());
    return BenchConfig{static_cast<std::uint32_t>(common.get_u64("trials")),
                       resolve_cli_threads(cli, /*default_threads=*/0),
                       common.get_u64("seed"), common.get_bool("full"), cli};
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    std::exit(1);
  }
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

/// The --generator flag of the regular-graph sweep benches (kGeneratorFlag,
/// "pairing" by default), rejected by regular_factory's own check when
/// unknown. Benches read it before printing anything, so a bad name fails
/// with no output.
inline std::string regular_generator(const ParamMap& flags) {
  std::string generator = flags.get("generator", kGeneratorFlag.fallback);
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
