// The three workloads and the per-layer probes their traced runs share.
//
// Each workload runs through the library's public entry points only:
//   fig1-sweep    run_sweep over the paper's Figure-1 grid;
//   large-cover   GraphStore::acquire + execute_run at paper-range n;
//   serve-replay  an in-process Server on loopback TCP, closed-loop clients.
// An untraced run reports the end-to-end metrics; a traced run (--trace 1)
// reports every per-layer metric, measured by timing calls into the
// layers' public functions, and records spans around those calls.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/params.hpp"
#include "graph/graph.hpp"
#include "serve/graph_store.hpp"
#include "serve/request.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {

Outcome run_fig1_sweep(const Options& opt);
Outcome run_large_cover(const Options& opt);
Outcome run_serve_replay(const Options& opt);

// ---- shared by the workloads -----------------------------------------------

/// The Figure-1 grid: uniform-rule E-process to vertex cover on pairing
/// random d-regular graphs. `ns` and `degrees` pick the grid; the
/// factories record their spans under `request`, parented to `parent`.
std::vector<ewalk::SweepPoint> fig1_points(const std::vector<std::uint32_t>& degrees,
                                           const std::vector<ewalk::Vertex>& ns,
                                           std::uint64_t request,
                                           std::uint64_t parent);

/// A small serve replay (the serve-replay mix, fewer requests), run by the
/// traced runs of the other workloads; adds the serve-layer metrics.
void mini_replay(Outcome& out, std::uint64_t seed, bool smoke);

/// The graph a workload's probes run on.
struct GraphSpec {
  std::string label;       ///< e.g. "regular-pairing n=7000000 r=4"
  std::string generator;   ///< GeneratorRegistry name
  ewalk::ParamMap params;  ///< generator parameters
  std::uint64_t seed = 1;  ///< construction seed
};

// ---- per-layer probes (traced runs) ----------------------------------------

/// graph.gen_s, graph.gen_edges_per_s, graph.connectivity_s, graph.csr_bytes.
void probe_graph(Outcome& out, const GraphSpec& spec);

/// kernel.<srw|eprocess>.w<W>.steps_per_s on `g`, kernel.*.cached on an
/// n=1e5 r=4 graph, kernel.process_create_s on `g`.
void probe_kernel(Outcome& out, const ewalk::Graph& g, std::uint64_t seed,
                  bool smoke);

/// harness.execute_run_ratio / measure_cover_ratio / run_sweep_ratio
/// against raw run_until on identical trials, and harness.pretrial_s.
/// `store` must already hold the graph of `req`.
void probe_harness(Outcome& out, ewalk::GraphStore& store,
                   const ewalk::RunRequest& req, bool smoke);

/// sweep.gen_share, sweep.unit_max_over_wall and executor.busy_frac.
void report_sweep_layers(Outcome& out, const ewalk::SweepResult& result,
                         std::uint32_t threads);

/// The remaining probes every traced run makes: executor.spawn_wait_us,
/// and — for the workloads without a sweep or a server of their own — a
/// small Figure-1 sweep and the mini replay, so that every traced run
/// reports every layer.
void probe_common(Outcome& out, const Options& opt, bool has_sweep,
                  bool has_server);

/// trace.overhead_frac from one untraced and one traced pass.
void report_trace_overhead(Outcome& out, double untraced_s, double traced_s);

}  // namespace perfbench
