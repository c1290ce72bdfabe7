// RunRequest / RunResult — the one typed entry point for running a walk
// experiment, shared by the `ewalk` CLI, the `ewalkd` server, and the
// programmatic harnesses.
//
// RunRequest is the single config struct all of them construct; the
// experiment harness accepts it directly (covertime/experiment.hpp).
//
// Determinism contract: execute_run(req) returns samples that are
// bit-identical to the equivalent `ewalk` CLI invocation for any cache
// state, thread count, bundle width, and request arrival order. The graph
// is built with Rng(req.seed) (or fetched from a GraphStore, whose entries
// were built the same way), and trial t's stream is a pure function of
// (req.seed, t) via run_target_trials — nothing depends on scheduling.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/params.hpp"
#include "serve/graph_store.hpp"
#include "util/stats.hpp"

namespace ewalk {

struct ProcessEntry;

/// What a run should drive each trial to. kAuto resolves from the
/// process's declared kind: a token process (coalescing-*, herman) targets
/// coalescence, everything else vertex cover.
enum class RunTarget : std::uint8_t {
  kAuto,         ///< resolve from the process kind (the CLI default)
  kVertices,     ///< run each trial to vertex cover
  kEdges,        ///< run each trial to edge cover
  kCoalescence   ///< run each trial until <= target_tokens tokens remain
};

/// Parses "vertices" | "edges" | "coalescence" | "" (auto); anything else
/// throws std::invalid_argument listing the accepted spellings.
RunTarget parse_run_target(const std::string& name);

/// Canonical spelling of a resolved target ("vertices", "edges",
/// "coalescence"; kAuto renders as "auto").
std::string run_target_name(RunTarget target);

/// Resolves kAuto from `process`'s declared kind: coalescence for a token
/// process, vertex cover otherwise. A resolved target passes through.
RunTarget resolve_run_target(RunTarget target, const ProcessEntry& process);

/// The canonical run configuration (see file comment). Its defaults are
/// the run schema's (run_schema()); field names mirror the CLI flags
/// one-for-one and protocol requests carry the same names, so the two
/// surfaces cannot diverge.
struct RunRequest {
  std::string id;        ///< request tag echoed in responses ("" for CLI runs)
  std::string graph = "regular";     ///< generator name (--graph; alias --generator)
  std::string process = "eprocess";  ///< process name (--process; alias --walk)
  ParamMap params;       ///< generator + process parameters (--n, --rule, ...)
  std::uint32_t trials = 5;       ///< samples to draw (--trials)
  std::uint32_t threads = 1;      ///< parallelism for this run; 0 = hardware
  std::uint64_t seed = 1;         ///< master seed (--seed)
  std::uint64_t max_steps = 0;    ///< per-trial budget; 0 = default_step_budget
  RunTarget target = RunTarget::kAuto;  ///< what each trial measures
  std::uint32_t target_tokens = 1;      ///< coalescence: stop at <= this many
  std::uint32_t bundle_width = 1; ///< trials interleaved per task (--bundle)
  bool analysis = false;          ///< include the cached GraphAnalysis block
};

/// Everything a completed run reports. `ok == false` means the run failed
/// before producing samples and `error` carries the (self-diagnosing)
/// message; all other fields are valid only when `ok`.
struct RunResult {
  std::string id;              ///< echoed request id
  bool ok = false;             ///< whether the run produced samples
  std::string error;           ///< failure message when !ok
  RunTarget target = RunTarget::kAuto;   ///< the resolved target
  std::shared_ptr<const CachedGraph> graph;  ///< the instance trials ran on
  bool graph_cache_hit = false;  ///< graph served from a GraphStore
  std::uint64_t budget = 0;      ///< per-trial step budget actually used
  std::vector<double> samples;   ///< one sample per trial, trial order
  SummaryStats stats;            ///< over `samples`
  std::vector<double> meeting_samples;  ///< coalescence only: first meeting
  SummaryStats meeting_stats;           ///< over `meeting_samples`
  std::uint32_t unfinished = 0;  ///< trials clamped to the budget
  std::vector<double> step_samples;  ///< transitions per trial, trial order
  double total_steps = 0.0;      ///< transitions summed over trials
  double wall_seconds = 0.0;     ///< wall time of the trial phase
  std::optional<GraphAnalysis> analysis;  ///< present when requested
  bool analysis_cache_hit = false;        ///< analysis served from cache
};

/// The run's own parameters: each RunRequest field but `params`, with its
/// default taken from RunRequest{} and its alias (--walk, --generator).
const ParamSchema& run_schema();

/// Builds a RunRequest from a flag/field map: aliases fold onto their
/// canonical keys (both with different values throws), and every key must
/// be a run field, one of `extra` (a surface's own flags) or a parameter
/// the family or the process declares, with a valid value — else
/// std::invalid_argument names each unknown key with its nearest declared
/// names. An unknown family or process is left to execute_run. req.params
/// keeps the keys that are neither run fields nor `extra`.
RunRequest run_request_from_params(const ParamMap& params,
                                   const ParamSchema& extra = {});

/// Executes a run: names and parameters are checked against the schemas,
/// the target resolves from the process's declared kind, the graph comes
/// from `store` (or a private construction when `store` is null), then
/// `req.trials` trials run through run_target_trials (bundles of
/// req.bundle_width) with per-trial streams derived from req.seed. Never
/// throws — failures come back as ok == false with the exception message
/// in `error`, so one bad request cannot kill a serving daemon.
RunResult execute_run(const RunRequest& req, GraphStore* store = nullptr);

}  // namespace ewalk
