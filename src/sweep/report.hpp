// Sweep result persistence and reporting.
//
// Every sweep emits one machine-readable JSON file,
// bench_out/SWEEP_<name>.json, that CI schema-validates
// (tools/validate_bench_json.py) and uploads as a per-commit artifact, plus
// an optional flat CSV for quick re-plotting. The JSON carries everything a
// re-plot needs — per-point coordinates, per-series summary statistics AND
// the raw trial samples — so a figure can be rebuilt (or two commits
// diffed sample-for-sample) without re-running the sweep.
//
// SWEEP_*.json schema, version 3 (v2 + scheduler observability: the pin
// flag, the per-unit wall-clock spread, and the per-thread
// throughput-over-time timeline; validated by tools/validate_bench_json.py,
// which still accepts v1/v2 files from older artifacts):
//   { "sweep": str, "version": 3, "seed": u64, "trials": u32,
//     "max_trials": u32, "ci_rel_target": f64,
//     "threads": u32, "pin": bool,
//     "gen_seconds": f64, "walk_seconds": f64, "wall_seconds": f64,
//     "unit_count": u32, "unit_seconds_min": f64, "unit_seconds_max": f64,
//     "timeline_bucket_seconds": f64,
//     "thread_timeline": [
//       { "thread": u32, "busy_seconds": [f64, ...],
//         "units": [u64, ...] }, ... ],
//     "points": [
//       { "label": str, "params": { <name>: f64, ... }, "gen_seconds": f64,
//         "series": [
//           { "name": str, "mean": f64, "ci95": f64, "median": f64,
//             "min": f64, "max": f64, "uncovered_trials": u32,
//             "trials_used": u32, "ci_rel_width": f64,
//             "walk_seconds": f64, "samples": [f64, ...] }, ... ] }, ... ] }
// `trials` is the floor; "max_trials" is 0 for fixed-trials sweeps, in which
// case every "trials_used" equals "trials". "samples" always has exactly
// "trials_used" entries. Every series of a point runs on that trial's one
// graph: "gen_seconds" times building the graphs, and a series'
// "walk_seconds" times its bundles through TrialTarget::run, building the
// trials' processes included. Older files may also carry the flag of an
// independent-graphs mode, since removed; readers ignore it.
// "thread_timeline" has one entry per scheduler thread that did sweep work,
// in timing-slot order; "busy_seconds" and "units" are parallel arrays over
// the same fixed-width buckets ("timeline_bucket_seconds" wide, spanning
// "wall_seconds").
#pragma once

#include <string>

#include "sweep/sweep.hpp"

namespace ewalk {

/// Writes <directory>/SWEEP_<result.name>.json (creating the directory if
/// needed) in the schema documented above; returns the path written.
/// Throws std::runtime_error when the file cannot be opened.
std::string write_sweep_json(const SweepResult& result,
                             const std::string& directory = "bench_out");

/// Writes <directory>/SWEEP_<result.name>.csv: one row per (point, series)
/// with the point coordinates as leading columns (every point of a sweep
/// must use the same coordinate names, which run_sweep callers guarantee by
/// construction). Returns the path written.
std::string write_sweep_csv(const SweepResult& result,
                            const std::string& directory = "bench_out");

/// Prints a generic per-point table of `result` to stdout: label, series,
/// mean ±95% CI, normalised-by-n column when the point has an "n"
/// coordinate, and the generation-vs-walk wall-clock split footer. Benches
/// with figure-specific tables print their own and call this only for the
/// footer via print_sweep_timing_split().
void print_sweep_table(const SweepResult& result);

/// Prints the generation-vs-walk wall-clock split — the line that says
/// whether graph construction dominates the sweep — followed by the
/// per-unit spread line (slowest vs fastest unit against the wall clock,
/// the straggler diagnostic) and the thread-utilisation summary from the
/// v3 timeline.
void print_sweep_timing_split(const SweepResult& result);

}  // namespace ewalk
