// Tests for the sweep subsystem (src/sweep/): the SweepDriver's scheduling
// invariants — samples must be a pure function of (master_seed, point,
// trial), never of thread count, bundle width or scheduling — plus the
// one-graph-per-trial sharing across series, budget clamping, stream
// derivation, and the SWEEP_*.json / CSV emission CI validates. Absolute
// sweep samples are pinned by kGoldenSweep in perf_regression_test.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/adapters.hpp"
#include "graph/generators.hpp"
#include "serve/protocol.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"
#include "walks/rules.hpp"
#include "walks/srw.hpp"

namespace ewalk {
namespace {

// Give the Executor four workers even on single-core CI runners, so the
// thread-invariance tests below exercise real stealing and nested waits.
// Runs before main(), i.e. before the first Executor::instance() call in
// this binary; an explicit EWALK_WORKERS in the environment wins.
const bool kWorkersEnvSet = [] {
  setenv("EWALK_WORKERS", "4", /*overwrite=*/0);
  return true;
}();

ProcessFactory eprocess_factory() {
  return [](const Graph& g, Rng&) -> std::unique_ptr<WalkProcess> {
    return std::make_unique<EProcessHandle>(g, 0,
                                            std::make_unique<UniformRule>());
  };
}

ProcessFactory srw_factory() {
  return [](const Graph& g, Rng&) -> std::unique_ptr<WalkProcess> {
    return std::make_unique<SimpleRandomWalk>(g, 0);
  };
}

// A small two-point, two-series sweep over random regular graphs —
// randomised generation AND randomised walks, so any schedule-dependence
// in the stream derivation would show up as diverging samples.
std::vector<SweepPoint> small_points() {
  std::vector<SweepPoint> points;
  for (const Vertex n : {60, 120}) {
    SweepPoint point;
    point.label = "n" + std::to_string(n);
    point.params = {{"n", static_cast<double>(n)}};
    point.graph = [n](Rng& rng) { return random_regular_pairing_connected(n, 4, rng); };
    point.series = {SweepSeriesSpec{"srw", srw_factory(), CoverTarget::kVertices},
                    SweepSeriesSpec{"eprocess", eprocess_factory(),
                                    CoverTarget::kVertices}};
    points.push_back(std::move(point));
  }
  return points;
}

std::vector<std::vector<double>> all_samples(const SweepResult& r) {
  std::vector<std::vector<double>> out;
  for (const auto& point : r.points)
    for (const auto& series : point.series) out.push_back(series.samples);
  return out;
}

TEST(SweepStream, PureFunctionOfIndices) {
  // Same coordinates -> identical stream; any coordinate change -> different.
  EXPECT_EQ(sweep_stream(1, 2, 3, 4)(), sweep_stream(1, 2, 3, 4)());
  EXPECT_NE(sweep_stream(1, 2, 3, 4)(), sweep_stream(2, 2, 3, 4)());
  EXPECT_NE(sweep_stream(1, 2, 3, 4)(), sweep_stream(1, 3, 3, 4)());
  EXPECT_NE(sweep_stream(1, 2, 3, 4)(), sweep_stream(1, 2, 4, 4)());
  EXPECT_NE(sweep_stream(1, 2, 3, 4)(), sweep_stream(1, 2, 3, 5)());
  // The roles a unit actually uses (the graph, series 0 and series 1) must
  // be pairwise distinct streams.
  EXPECT_NE(sweep_stream(7, 0, 0, 0)(), sweep_stream(7, 0, 0, 1)());
  EXPECT_NE(sweep_stream(7, 0, 0, 0)(), sweep_stream(7, 0, 0, 3)());
  EXPECT_NE(sweep_stream(7, 0, 0, 1)(), sweep_stream(7, 0, 0, 3)());
}

TEST(SweepDriver, SamplesInvariantAcrossThreadCounts) {
  SweepConfig config;
  config.trials = 4;
  config.master_seed = 99;

  config.threads = 1;
  const auto serial = all_samples(run_sweep("t", small_points(), config));
  config.threads = 4;
  const auto four = all_samples(run_sweep("t", small_points(), config));
  config.threads = 0;  // hardware concurrency
  const auto hardware = all_samples(run_sweep("t", small_points(), config));

  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, hardware);
  ASSERT_EQ(serial.size(), 4u);  // 2 points x 2 series
  for (const auto& samples : serial) ASSERT_EQ(samples.size(), 4u);
}

TEST(SweepDriver, ReuseSharesOneInstanceAcrossSeries) {
  // Both series see the trial's one graph: on a cycle the E-process
  // covers n vertices in exactly n-1 steps regardless, so compare through
  // the SRW whose cover time is graph-shape sensitive — identical samples
  // between a one-series and a two-series sweep prove the srw series'
  // stream does not depend on how many series share the point.
  SweepPoint both;
  both.label = "cycle";
  both.params = {{"n", 80.0}};
  both.graph = [](Rng&) { return cycle_graph(80); };
  both.series = {SweepSeriesSpec{"srw", srw_factory(), CoverTarget::kVertices},
                 SweepSeriesSpec{"eprocess", eprocess_factory(),
                                 CoverTarget::kVertices}};
  SweepPoint solo = both;
  solo.series = {both.series[0]};

  SweepConfig config;
  config.trials = 3;
  config.threads = 1;
  config.master_seed = 5;
  const auto with_both = run_sweep("t", {both}, config);
  const auto with_solo = run_sweep("t", {solo}, config);
  EXPECT_EQ(with_both.points[0].series[0].samples,
            with_solo.points[0].series[0].samples);
  // E-process on a cycle: vertex cover after exactly n-1 blue steps.
  for (const double v : with_both.points[0].series[1].samples)
    EXPECT_EQ(v, 79.0);
}

TEST(SweepDriver, BudgetClampsAndCountsUncoveredTrials) {
  // Two disjoint triangles: no walk from vertex 0 can ever cover them.
  SweepPoint point;
  point.label = "disconnected";
  point.params = {{"n", 6.0}};
  point.graph = [](Rng&) {
    GraphBuilder b(6);
    for (Vertex v = 0; v < 3; ++v) b.add_edge(v, (v + 1) % 3);
    for (Vertex v = 0; v < 3; ++v) b.add_edge(3 + v, 3 + (v + 1) % 3);
    return b.build();
  };
  point.series = {SweepSeriesSpec{"srw", srw_factory(), CoverTarget::kVertices}};
  point.max_steps = 500;

  SweepConfig config;
  config.trials = 3;
  config.threads = 1;
  const auto result = run_sweep("t", {point}, config);
  const SweepSeriesResult& sr = result.points[0].series[0];
  EXPECT_EQ(sr.uncovered_trials, 3u);
  for (const double v : sr.samples) EXPECT_EQ(v, 500.0);
}

TEST(SweepDriver, EdgeTargetUsesEdgeCoverStep) {
  SweepPoint point;
  point.label = "cycle";
  point.params = {{"n", 50.0}};
  point.graph = [](Rng&) { return cycle_graph(50); };
  point.series = {SweepSeriesSpec{"eprocess", eprocess_factory(),
                                  CoverTarget::kEdges}};
  SweepConfig config;
  config.trials = 2;
  config.threads = 1;
  const auto result = run_sweep("t", {point}, config);
  // E-process edge-covers a cycle in exactly n steps.
  for (const double v : result.points[0].series[0].samples) EXPECT_EQ(v, 50.0);
}

TEST(SweepAdaptive, TrialCountsStayWithinFloorAndCap) {
  // Random cover times on small graphs: a near-zero CI target cannot be met,
  // so every series must run exactly to the cap; with an unreachable (huge)
  // target, every series must close at the floor.
  SweepConfig config;
  config.trials = 3;
  config.threads = 1;
  config.master_seed = 21;
  config.max_trials = 11;
  config.ci_rel_target = 1e-9;
  const auto at_cap = run_sweep("t", small_points(), config);
  for (const auto& point : at_cap.points)
    for (const auto& sr : point.series) {
      EXPECT_EQ(sr.trials_used, 11u);
      EXPECT_EQ(sr.samples.size(), 11u);
      EXPECT_GT(sr.ci_rel_width, 0.0);
    }

  config.ci_rel_target = 1e9;
  const auto at_floor = run_sweep("t", small_points(), config);
  for (const auto& point : at_floor.points)
    for (const auto& sr : point.series) {
      EXPECT_EQ(sr.trials_used, 3u);
      EXPECT_EQ(sr.samples.size(), 3u);
    }
}

TEST(SweepAdaptive, DeterministicSeriesClosesAtFloor) {
  // The E-process vertex-covers a cycle in exactly n-1 steps every trial:
  // zero variance, so the CI closes the series the first time it is checked
  // — at the floor — while the cap would allow many more trials.
  SweepPoint point;
  point.label = "cycle";
  point.params = {{"n", 80.0}};
  point.graph = [](Rng&) { return cycle_graph(80); };
  point.series = {SweepSeriesSpec{"eprocess", eprocess_factory(),
                                  CoverTarget::kVertices}};
  SweepConfig config;
  config.trials = 2;
  config.threads = 1;
  config.max_trials = 50;
  config.ci_rel_target = 0.05;
  const auto result = run_sweep("t", {point}, config);
  const SweepSeriesResult& sr = result.points[0].series[0];
  EXPECT_EQ(sr.trials_used, 2u);
  EXPECT_EQ(sr.ci_rel_width, 0.0);
  for (const double v : sr.samples) EXPECT_EQ(v, 79.0);
}

TEST(SweepAdaptive, SamplesInvariantAcrossThreadCountsAndPrefixFixedRun) {
  // The adaptive schedule must be a pure function of the samples: the full
  // per-series sample vectors are bit-identical across --threads 1 / 4 /
  // hardware, and any fixed-trials run is a bit-identical prefix of the
  // adaptive one (trial t's streams do not depend on how many trials run).
  SweepConfig config;
  config.trials = 3;
  config.master_seed = 99;
  config.max_trials = 9;
  config.ci_rel_target = 1e-9;  // forces extra rounds beyond the floor

  config.threads = 1;
  const auto serial = run_sweep("t", small_points(), config);
  config.threads = 4;
  const auto four = all_samples(run_sweep("t", small_points(), config));
  config.threads = 0;  // hardware concurrency
  const auto hardware = all_samples(run_sweep("t", small_points(), config));

  const auto serial_samples = all_samples(serial);
  EXPECT_EQ(serial_samples, four);
  EXPECT_EQ(serial_samples, hardware);

  SweepConfig fixed;
  fixed.trials = 3;
  fixed.master_seed = 99;
  fixed.threads = 1;
  const auto prefix = all_samples(run_sweep("t", small_points(), fixed));
  ASSERT_EQ(prefix.size(), serial_samples.size());
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    ASSERT_GE(serial_samples[i].size(), prefix[i].size());
    for (std::size_t t = 0; t < prefix[i].size(); ++t)
      EXPECT_EQ(serial_samples[i][t], prefix[i][t])
          << "series " << i << " trial " << t;
  }
}

TEST(SweepDriver, SamplesInvariantAcrossBundleWidths) {
  // Bundling (engine/bundle.hpp) interleaves several trials of a unit in
  // one task to hide DRAM latency; it must be pure scheduling. Every
  // (width, threads) combination must reproduce the width-1 samples bit for
  // bit — each trial keeps its own sweep_stream-derived streams and its
  // sequential check schedule regardless of bundling.
  SweepConfig config;
  config.trials = 4;
  config.master_seed = 99;
  config.threads = 1;
  config.bundle_width = 1;
  const auto reference = all_samples(run_sweep("t", small_points(), config));
  ASSERT_EQ(reference.size(), 4u);

  for (const std::uint32_t width : {2u, 4u, 8u}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      SweepConfig bundled = config;
      bundled.bundle_width = width;
      bundled.threads = threads;
      EXPECT_EQ(all_samples(run_sweep("t", small_points(), bundled)),
                reference)
          << "width " << width << ", threads " << threads;
    }
  }
}

TEST(SweepAdaptive, AdaptiveScheduleInvariantAcrossBundleWidths) {
  // Adaptive trials decide the next round from completed samples only, so
  // bundling a round's units cannot change which trials run or their
  // values.
  SweepConfig config;
  config.trials = 3;
  config.master_seed = 99;
  config.threads = 4;
  config.max_trials = 9;
  config.ci_rel_target = 1e-9;  // forces extra rounds beyond the floor
  config.bundle_width = 1;
  const auto reference = all_samples(run_sweep("t", small_points(), config));
  config.bundle_width = 4;
  EXPECT_EQ(all_samples(run_sweep("t", small_points(), config)), reference);
}

TEST(SweepScheduler, BundledUnitsCountBundlesInSpreadAndTimeline) {
  SweepConfig config;
  config.trials = 4;
  config.master_seed = 7;
  config.threads = 4;
  config.bundle_width = 4;
  const SweepResult result = run_sweep("t", small_points(), config);
  // 2 points x 1 bundle of 4 trials each.
  EXPECT_EQ(result.unit_count, 2u);
  std::uint64_t total_units = 0;
  for (const SweepThreadTimeline& timeline : result.thread_timeline)
    for (const std::uint64_t units : timeline.units) total_units += units;
  // Series completions still land once per (trial, series) pair.
  EXPECT_EQ(total_units, 16u);
}

TEST(SweepScheduler, RepeatedStealingRunsAreBitIdentical) {
  // Work stealing makes the schedule nondeterministic run to run; the
  // samples must not be. Two identical parallel runs (4 threads on the
  // 4-worker executor, nested trial/series fan-out active) must agree with
  // each other and with a serial run, sample for sample.
  SweepConfig config;
  config.trials = 4;
  config.master_seed = 1234;
  config.threads = 4;
  const auto first = all_samples(run_sweep("t", small_points(), config));
  const auto second = all_samples(run_sweep("t", small_points(), config));
  config.threads = 1;
  const auto serial = all_samples(run_sweep("t", small_points(), config));
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, serial);
}

TEST(SweepScheduler, RecordsUnitSpreadAndThreadTimeline) {
  SweepConfig config;
  config.trials = 4;
  config.master_seed = 7;
  config.threads = 4;
  const SweepResult result = run_sweep("t", small_points(), config);

  // 2 points x 4 trials, each measuring 2 series.
  EXPECT_EQ(result.unit_count, 8u);
  EXPECT_GE(result.unit_seconds_min, 0.0);
  EXPECT_GE(result.unit_seconds_max, result.unit_seconds_min);
  EXPECT_GT(result.timeline_bucket_seconds, 0.0);

  ASSERT_FALSE(result.thread_timeline.empty());
  std::uint64_t total_units = 0;
  for (std::size_t i = 0; i < result.thread_timeline.size(); ++i) {
    const SweepThreadTimeline& timeline = result.thread_timeline[i];
    ASSERT_EQ(timeline.busy_seconds.size(), timeline.units.size());
    ASSERT_EQ(timeline.busy_seconds.size(),
              result.thread_timeline.front().busy_seconds.size());
    if (i > 0) {
      EXPECT_GT(timeline.thread, result.thread_timeline[i - 1].thread);
    }
    for (const double busy : timeline.busy_seconds) EXPECT_GE(busy, 0.0);
    for (const std::uint64_t units : timeline.units) total_units += units;
  }
  // Every series completion lands in exactly one bucket of one thread.
  EXPECT_EQ(total_units, 16u);  // 8 units x 2 series
}

TEST(SweepReport, WritesSchemaConformantJsonAndCsv) {
  SweepConfig config;
  config.trials = 2;
  config.threads = 1;
  config.master_seed = 3;
  SweepResult result = run_sweep("unit_test", small_points(), config);

  const std::string dir = "sweep_test_out";
  const std::string json_path = write_sweep_json(result, dir);
  const std::string csv_path = write_sweep_csv(result, dir);
  EXPECT_EQ(json_path, dir + "/SWEEP_unit_test.json");

  std::ifstream json(json_path);
  ASSERT_TRUE(json.good());
  std::stringstream buf;
  buf << json.rdbuf();
  const std::string body = buf.str();
  for (const char* needle :
       {"\"sweep\": \"unit_test\"", "\"version\": 3", "\"trials\": 2",
        "\"max_trials\": 0", "\"ci_rel_target\": 0", "\"points\": [",
        "\"params\": {\"n\": 60}", "\"name\": \"srw\"",
        "\"name\": \"eprocess\"", "\"samples\": [", "\"gen_seconds\":",
        "\"walk_seconds\":", "\"uncovered_trials\": 0",
        "\"trials_used\": 2", "\"ci_rel_width\":", "\"pin\": false",
        "\"unit_count\": 4", "\"unit_seconds_min\":",
        "\"unit_seconds_max\":", "\"timeline_bucket_seconds\":",
        "\"thread_timeline\": [", "\"busy_seconds\": [", "\"units\": ["}) {
    EXPECT_NE(body.find(needle), std::string::npos) << "missing: " << needle;
  }

  std::ifstream csv(csv_path);
  ASSERT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header,
            "label,n,series,mean,ci95,median,min,max,uncovered_trials,"
            "trials_used,ci_rel_width,walk_seconds,gen_seconds");
  std::size_t rows = 0;
  for (std::string line; std::getline(csv, line);)
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, 4u);  // 2 points x 2 series

  std::filesystem::remove_all(dir);
}

TEST(SweepReport, LabelsSurviveTheJsonRoundTrip) {
  // A quote, a backslash and a newline must all come back from the written
  // file; a control character must be escaped, not dropped.
  const std::string label = "a\"b\\c\nd";
  SweepResult result;
  result.name = "label_round_trip";
  result.points.emplace_back().label = label;

  const std::string dir = "sweep_test_label_out";
  std::ifstream json(write_sweep_json(result, dir));
  std::stringstream buf;
  buf << json.rdbuf();
  const auto member = [](const JsonValue& object, const std::string& key) {
    for (const auto& [name, value] : object.object)
      if (name == key) return value;
    ADD_FAILURE() << "missing member " << key;
    return JsonValue{};
  };
  const JsonValue points = member(parse_json(buf.str()), "points");
  ASSERT_EQ(points.array.size(), 1u);
  EXPECT_EQ(member(points.array[0], "label").string, label);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ewalk
