#include "sweep/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>

#include "engine/budget.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ewalk {

namespace {

// What one unit task (one point, one trial) records for one series. Spans
// are seconds relative to the sweep's start timer; `thread` is the
// Executor::timing_slot of the thread that ran the series — bookkeeping
// for the v3 timeline only, never an input to the measurement.
struct SeriesCell {
  double value = 0.0;
  bool covered = false;
  bool ran = false;  // false when the series was already closed at this trial
  double walk_seconds = 0.0;
  double gen_seconds = 0.0;  // private-graph build time (reuse off)
  std::uint32_t thread = 0;
  double t_start = 0.0;
  double t_end = 0.0;
};

// What one unit task records in total. Units write disjoint slots of a
// structure only resized between rounds, so tasks need no locking around
// results; series subtasks of one unit write disjoint cells.
struct UnitRecord {
  double gen_seconds = 0.0;   // shared-graph build time (reuse on)
  std::uint32_t gen_thread = 0;
  double gen_t_start = 0.0;
  double gen_t_end = 0.0;
  double t_start = 0.0;  // whole-unit span, for the straggler report
  double t_end = 0.0;
  // True on the record that carries a scheduler unit's wall-clock span.
  // Width-1 units are their own lead; in a bundled unit only the first
  // trial's record is (the bundle is ONE unit), so the straggler report
  // counts bundles, not trials.
  bool unit_lead = true;
  std::vector<SeriesCell> cells;
};

// Relative CI width used by both the adaptive stopping rule and the reports:
// 95% half-width over |mean|, defined as 0 when the mean is 0 (degenerate —
// every sample 0 — where the CI is exactly tight anyway).
double rel_ci_width(const SummaryStats& stats) {
  return stats.mean != 0.0 ? stats.ci95_halfwidth() / std::abs(stats.mean)
                           : 0.0;
}

// Largest-expected-cost-first submission order, so the straggler point
// starts first instead of last. The heuristic is n · r · series_count from
// the point's declared params (n and r/d coordinates; absent ones count as
// 1) — crude, but walk cost is superlinear in n, so any n-major order beats
// the declaration order for heterogeneous grids. Stable, so equal-cost
// points keep declaration order and the schedule stays reproducible.
std::vector<std::size_t> submission_order(
    const std::vector<SweepPoint>& points) {
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> cost(points.size(), 1.0);
  for (std::size_t p = 0; p < points.size(); ++p) {
    double n = 1.0, r = 1.0;
    for (const SweepParam& param : points[p].params) {
      if (param.name == "n") n = std::max(param.value, 1.0);
      if (param.name == "r" || param.name == "d")
        r = std::max(param.value, 1.0);
    }
    cost[p] = n * r *
              static_cast<double>(std::max<std::size_t>(
                  1, points[p].series.size()));
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost[a] > cost[b];
                   });
  return order;
}

constexpr std::size_t kTimelineBuckets = 32;

}  // namespace

Rng sweep_stream(std::uint64_t master_seed, std::uint64_t point,
                 std::uint64_t trial, std::uint64_t role) {
  // Fold each index into the state with one SplitMix64 step; the +1 keeps
  // index 0 from degenerating into a plain re-hash of the previous state.
  std::uint64_t h = master_seed;
  for (const std::uint64_t v : {point, trial, role}) {
    std::uint64_t s = h + 0x9E3779B97F4A7C15ULL * (v + 1);
    h = splitmix64(s);
  }
  return Rng(h);
}

SweepResult run_sweep(const std::string& name,
                      const std::vector<SweepPoint>& points,
                      const SweepConfig& config) {
  const std::uint32_t floor_trials = std::max(1u, config.trials);
  const bool adaptive = config.max_trials > 0;
  const std::uint32_t cap =
      adaptive ? std::max(config.max_trials, floor_trials) : floor_trials;

  std::uint32_t workers =
      config.threads == 0 ? Executor::hardware_threads() : config.threads;
  if (workers == 0) workers = 1;
  const bool parallel = workers > 1 && !points.empty();

  // records[p][t] is trial t of point p; done[p] counts its finished trials.
  // Each point task owns its own slice; the caller reads everything back
  // only after the root scope wait.
  std::vector<std::vector<UnitRecord>> records(points.size());
  std::vector<std::uint32_t> done(points.size(), 0);

  WallTimer sweep_timer;  // the epoch every recorded span is relative to

  // Series s of trials [lo, hi) of point p as one bundle: each trial's
  // process is built from its own role streams (on the shared graph, or on
  // a private graph drawn here when reuse is off) and all of them advance
  // together through TrialTarget::run (run_trial_bundle) with the stride-1
  // check schedule. The bundle is one interleaved run, so it is one busy
  // span: the lead cell carries it; the other cells are zero-span points
  // at the bundle's end, so each still counts one series completion in the
  // timeline.
  const auto run_series = [&](std::size_t p, std::uint32_t lo,
                              std::uint32_t hi, std::size_t s,
                              const std::vector<Graph>& shared) {
    const SweepPoint& point = points[p];
    const TrialTarget target(point.series[s].target);
    const std::uint32_t width = hi - lo;
    const double series_start = sweep_timer.seconds();
    // Processes hold Graph* and BundleTrial holds Rng*: reserve so the
    // backing storage never reallocates under them.
    std::vector<Graph> privates;
    std::vector<Rng> walk_rngs;
    std::vector<std::unique_ptr<WalkProcess>> walks;
    if (!config.reuse_graph) privates.reserve(width);
    walk_rngs.reserve(width);
    walks.reserve(width);
    std::vector<BundleTrial> bundle(width);
    for (std::uint32_t i = 0; i < width; ++i) {
      const std::uint32_t t = lo + i;
      SeriesCell& cell = records[p][t].cells[s];
      cell.thread = Executor::timing_slot();
      const Graph* g;
      if (config.reuse_graph) {
        g = &shared[i];
      } else {
        Rng graph_rng = sweep_stream(config.master_seed, p, t, 2 * s + 2);
        WallTimer gen_timer;
        privates.push_back(point.graph(graph_rng));
        cell.gen_seconds = gen_timer.seconds();
        g = &privates.back();
      }
      walk_rngs.push_back(sweep_stream(config.master_seed, p, t, 2 * s + 1));
      walks.push_back(point.series[s].process(*g, walk_rngs.back()));
      const std::uint64_t budget =
          point.max_steps != 0 ? point.max_steps : default_step_budget(*g);
      bundle[i] = BundleTrial{walks.back().get(), &walk_rngs.back(), budget, 1};
    }
    WallTimer walk_timer;
    const std::vector<std::uint8_t> finished = target.run(bundle);
    const double walk_secs = walk_timer.seconds();
    const double series_end = sweep_timer.seconds();
    for (std::uint32_t i = 0; i < width; ++i) {
      SeriesCell& cell = records[p][lo + i].cells[s];
      cell.ran = true;
      cell.covered = finished[i] != 0;
      cell.value = static_cast<double>(cell.covered
                                           ? target.result_step(*walks[i])
                                           : bundle[i].max_steps);
      cell.walk_seconds = i == 0 ? walk_secs : 0.0;
      cell.t_start = i == 0 ? series_start : series_end;
      cell.t_end = series_end;
    }
  };

  // One scheduler unit: trials [lo, hi) of point p — a bundle of one on the
  // width-1 schedule. Per trial (ascending) the shared graph is built from
  // its role-0 stream; then the open series run, fanned out one level
  // deeper when several are open on a parallel sweep. Streams and check
  // schedules do not depend on the width, so samples are bit-identical for
  // every width; only the wall-clock bookkeeping reflects the bundling: the
  // unit's first trial record is its lead, so the straggler report counts
  // units, not trials.
  const auto run_unit = [&](std::size_t p, std::uint32_t lo, std::uint32_t hi,
                            const std::vector<std::uint8_t>& mask) {
    const SweepPoint& point = points[p];
    const double unit_start = sweep_timer.seconds();
    std::vector<Graph> shared;
    if (config.reuse_graph) shared.reserve(hi - lo);
    for (std::uint32_t t = lo; t < hi; ++t) {
      UnitRecord& rec = records[p][t];
      rec.cells.resize(point.series.size());
      rec.t_start = unit_start;
      rec.unit_lead = t == lo;
      if (config.reuse_graph) {
        Rng graph_rng = sweep_stream(config.master_seed, p, t, 0);
        rec.gen_thread = Executor::timing_slot();
        rec.gen_t_start = sweep_timer.seconds();
        WallTimer gen_timer;
        shared.push_back(point.graph(graph_rng));
        rec.gen_seconds = gen_timer.seconds();
        rec.gen_t_end = sweep_timer.seconds();
      }
    }

    const auto to_run = std::count(mask.begin(), mask.end(), std::uint8_t{1});
    if (parallel && to_run > 1) {
      // Nested fan-out: `shared` lives in this frame until the scope wait
      // returns, so series subtasks may reference it freely.
      TaskScope series_scope;
      for (std::size_t s = 0; s < point.series.size(); ++s)
        if (mask[s])
          series_scope.spawn([&run_series, &shared, p, lo, hi, s] {
            run_series(p, lo, hi, s, shared);
          });
      series_scope.wait();
    } else {
      for (std::size_t s = 0; s < point.series.size(); ++s)
        if (mask[s]) run_series(p, lo, hi, s, shared);
    }
    const double unit_end = sweep_timer.seconds();
    for (std::uint32_t t = lo; t < hi; ++t) records[p][t].t_end = unit_end;
  };

  // One task per point: the point runs its own adaptive round loop, with
  // the old global round barrier replaced by a nested scope wait. A
  // point's batch sizes and open-series masks were always pure functions
  // of its *own* completed samples, so per-point barriers replay exactly
  // the trial schedule the global barrier produced — bit-identical
  // samples — while freeing other points to keep running.
  const auto run_point = [&](std::size_t p) {
    const SweepPoint& point = points[p];
    std::vector<std::uint8_t> open(point.series.size(), 1);
    std::uint32_t done_p = 0;
    for (;;) {
      const bool point_open =
          point.series.empty()
              ? done_p == 0
              : std::any_of(open.begin(), open.end(),
                            [](std::uint8_t o) { return o != 0; });
      if (!point_open || done_p >= cap) break;
      // First round runs the floor; later rounds grow geometrically (half
      // of what is already done, at least 1) so a slow-converging series
      // needs only O(log(cap/floor)) barriers to reach the cap.
      const std::uint32_t batch = std::min(
          done_p == 0 ? floor_trials : std::max(1u, done_p / 2),
          cap - done_p);
      records[p].resize(done_p + batch);
      // The round's trials, packed into units of `width` consecutive trials
      // (ascending; the last may be short). Round barriers do not depend on
      // the width, so the adaptive schedule stays a pure function of the
      // samples.
      const std::uint32_t width = std::max(1u, config.bundle_width);
      const std::uint32_t end = done_p + batch;
      if (parallel) {
        TaskScope round_scope;
        for (std::uint32_t lo = done_p; lo < end; lo += width)
          round_scope.spawn(
              [&run_unit, p, lo, hi = std::min(lo + width, end), mask = open] {
                run_unit(p, lo, hi, mask);
              });
        round_scope.wait();
      } else {
        for (std::uint32_t lo = done_p; lo < end; lo += width)
          run_unit(p, lo, std::min(lo + width, end), open);
      }
      done_p += batch;

      // Closure pass at the round barrier: a pure function of this
      // point's completed samples, which are bit-identical across thread
      // counts, so the adaptive schedule is too.
      for (std::size_t s = 0; s < point.series.size(); ++s) {
        if (!open[s]) continue;
        if (done_p >= cap) {
          open[s] = 0;
          continue;
        }
        if (!adaptive) continue;  // fixed mode closes via the cap above
        std::vector<double> samples;
        samples.reserve(done_p);
        for (std::uint32_t t = 0; t < done_p; ++t)
          if (records[p][t].cells[s].ran)
            samples.push_back(records[p][t].cells[s].value);
        if (samples.size() >= floor_trials &&
            rel_ci_width(summarize(samples)) <= config.ci_rel_target)
          open[s] = 0;
      }
    }
    done[p] = done_p;
  };

  const std::vector<std::size_t> order = submission_order(points);
  if (parallel) {
    TaskScope sweep_scope(workers);
    for (const std::size_t p : order)
      sweep_scope.spawn([&run_point, p] { run_point(p); });
    sweep_scope.wait();
  } else {
    for (const std::size_t p : order) run_point(p);
  }

  SweepResult out;
  out.name = name;
  out.master_seed = config.master_seed;
  out.trials = config.trials;
  out.max_trials = config.max_trials;
  out.ci_rel_target = adaptive ? config.ci_rel_target : 0.0;
  out.threads = config.threads;
  out.reuse_graph = config.reuse_graph;
  out.pinned = Executor::pinning_enabled();
  out.wall_seconds = sweep_timer.seconds();
  out.points.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    const SweepPoint& point = points[p];
    SweepPointResult pr;
    pr.label = point.label;
    pr.params = point.params;
    pr.series.resize(point.series.size());
    for (const UnitRecord& rec : records[p]) {
      pr.gen_seconds += rec.gen_seconds;
      for (std::size_t s = 0; s < point.series.size(); ++s) {
        const SeriesCell& cell = rec.cells[s];
        if (!cell.ran) continue;
        pr.gen_seconds += cell.gen_seconds;
        SweepSeriesResult& sr = pr.series[s];
        sr.samples.push_back(cell.value);
        sr.walk_seconds += cell.walk_seconds;
        if (!cell.covered) ++sr.uncovered_trials;
      }
    }
    for (std::size_t s = 0; s < point.series.size(); ++s) {
      SweepSeriesResult& sr = pr.series[s];
      sr.name = point.series[s].name;
      sr.stats = summarize(sr.samples);
      sr.trials_used = static_cast<std::uint32_t>(sr.samples.size());
      sr.ci_rel_width = rel_ci_width(sr.stats);
      out.walk_seconds += sr.walk_seconds;
    }
    out.gen_seconds += pr.gen_seconds;
    out.points.push_back(std::move(pr));
  }

  // Unit spread: the straggler report. A slowest unit far below the wall
  // clock means trial-level parallelism kept the sweep from being bounded
  // by its biggest unit. Only lead records carry a unit span: width-1 units
  // are their own lead, a bundle's lead is its first trial — so bundled
  // sweeps count bundles here, matching what the scheduler actually ran.
  double unit_min = 0.0, unit_max = 0.0;
  std::uint32_t unit_count = 0;
  for (const auto& point_records : records) {
    for (const UnitRecord& rec : point_records) {
      if (!rec.unit_lead) continue;
      const double span = rec.t_end - rec.t_start;
      if (unit_count == 0 || span < unit_min) unit_min = span;
      if (span > unit_max) unit_max = span;
      ++unit_count;
    }
  }
  out.unit_count = unit_count;
  out.unit_seconds_min = unit_min;
  out.unit_seconds_max = unit_max;

  // Per-thread throughput-over-time: fold every recorded busy span
  // (generation + each series run) into fixed-width buckets over the
  // sweep's wall clock, keyed by the thread's timing slot. `units` counts
  // series completions in the bucket where each series ended.
  const double bucket_seconds =
      std::max(out.wall_seconds, 1e-9) / static_cast<double>(kTimelineBuckets);
  out.timeline_bucket_seconds = bucket_seconds;
  std::map<std::uint32_t, std::size_t> slot_index;
  const auto slot_of = [&](std::uint32_t thread) -> SweepThreadTimeline& {
    const auto [it, inserted] =
        slot_index.try_emplace(thread, out.thread_timeline.size());
    if (inserted) {
      SweepThreadTimeline timeline;
      timeline.thread = thread;
      timeline.busy_seconds.assign(kTimelineBuckets, 0.0);
      timeline.units.assign(kTimelineBuckets, 0);
      out.thread_timeline.push_back(std::move(timeline));
    }
    return out.thread_timeline[it->second];
  };
  const auto bucket_of = [&](double at) {
    const double b = std::floor(at / bucket_seconds);
    return static_cast<std::size_t>(std::clamp(
        b, 0.0, static_cast<double>(kTimelineBuckets - 1)));
  };
  const auto add_busy = [&](std::uint32_t thread, double t0, double t1) {
    if (t1 <= t0) return;
    SweepThreadTimeline& timeline = slot_of(thread);
    for (std::size_t b = bucket_of(t0); b <= bucket_of(t1); ++b) {
      const double lo = static_cast<double>(b) * bucket_seconds;
      const double overlap =
          std::min(t1, lo + bucket_seconds) - std::max(t0, lo);
      if (overlap > 0.0) timeline.busy_seconds[b] += overlap;
    }
  };
  for (const auto& point_records : records) {
    for (const UnitRecord& rec : point_records) {
      if (rec.gen_t_end > rec.gen_t_start)
        add_busy(rec.gen_thread, rec.gen_t_start, rec.gen_t_end);
      for (const SeriesCell& cell : rec.cells) {
        if (!cell.ran) continue;
        add_busy(cell.thread, cell.t_start, cell.t_end);
        slot_of(cell.thread).units[bucket_of(cell.t_end)] += 1;
      }
    }
  }
  std::stable_sort(out.thread_timeline.begin(), out.thread_timeline.end(),
                   [](const SweepThreadTimeline& a,
                      const SweepThreadTimeline& b) {
                     return a.thread < b.thread;
                   });
  return out;
}

}  // namespace ewalk
