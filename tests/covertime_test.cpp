// Tests for the experiment harness: parallel determinism, trial accounting,
// and the cover measurements.
#include <gtest/gtest.h>

#include "covertime/experiment.hpp"
#include "engine/adapters.hpp"
#include "graph/generators.hpp"
#include "walks/rules.hpp"
#include "walks/srw.hpp"

namespace ewalk {
namespace {

// The two walks the paper compares head to head, both started at vertex 0.
const ProcessFactory eprocess_walk =
    [](const Graph& g, Rng&) -> std::unique_ptr<WalkProcess> {
  return std::make_unique<EProcessHandle>(g, 0, std::make_unique<UniformRule>());
};
const ProcessFactory srw_walk =
    [](const Graph& g, Rng&) -> std::unique_ptr<WalkProcess> {
  return std::make_unique<SimpleRandomWalk>(g, 0);
};

TEST(MeasureCover, ThreadCountInvarianceWithRealWalks) {
  // The determinism contract the harness documents: trial i's stream is a
  // pure function of (master_seed, i), so threads=1 and threads=8 must
  // return bit-identical vectors — including when trials build graphs and
  // drive real walks, not just draw from the rng.
  RunRequest req;
  req.trials = 8;
  req.seed = 4242;
  const GraphFactory graphs = [](Rng& rng) {
    return random_regular_connected(80, 4, rng);
  };
  req.threads = 1;
  const auto serial = measure_cover(eprocess_walk, graphs, req);
  req.threads = 8;
  const auto parallel = measure_cover(eprocess_walk, graphs, req);
  EXPECT_EQ(serial.samples, parallel.samples);

  req.threads = 1;
  const auto srw_serial = measure_cover(srw_walk, graphs, req);
  req.threads = 8;
  const auto srw_parallel = measure_cover(srw_walk, graphs, req);
  EXPECT_EQ(srw_serial.samples, srw_parallel.samples);
}

TEST(MeasureCover, EProcessOnCycleIsExact) {
  // On C_n the E-process covers vertices in exactly n-1 steps and edges in
  // exactly n steps regardless of trials/seeds.
  RunRequest req;
  req.trials = 4;
  req.seed = 5;
  const GraphFactory graphs = [](Rng&) { return cycle_graph(50); };
  auto res = measure_cover(eprocess_walk, graphs, req);
  EXPECT_EQ(res.uncovered_trials, 0u);
  EXPECT_DOUBLE_EQ(res.stats.mean, 49.0);

  req.target = RunTarget::kEdges;
  res = measure_cover(eprocess_walk, graphs, req);
  EXPECT_DOUBLE_EQ(res.stats.mean, 50.0);
}

TEST(MeasureCover, FreshGraphPerTrial) {
  // The factory must be invoked once per trial: count invocations.
  std::atomic<int> calls{0};
  RunRequest req;
  req.trials = 6;
  req.threads = 2;
  const GraphFactory graphs = [&calls](Rng& rng) {
    calls.fetch_add(1);
    return random_regular_connected(40, 4, rng);
  };
  const auto res = measure_cover(eprocess_walk, graphs, req);
  EXPECT_EQ(calls.load(), 6);
  EXPECT_EQ(res.samples.size(), 6u);
  EXPECT_EQ(res.uncovered_trials, 0u);
}

TEST(MeasureCover, SrwCoversAndIsSlowerThanEProcess) {
  RunRequest req;
  req.trials = 5;
  req.seed = 11;
  const GraphFactory graphs = [](Rng& rng) {
    return random_regular_connected(200, 4, rng);
  };
  const auto ep = measure_cover(eprocess_walk, graphs, req);
  const auto srw = measure_cover(srw_walk, graphs, req);
  EXPECT_EQ(ep.uncovered_trials, 0u);
  EXPECT_EQ(srw.uncovered_trials, 0u);
  EXPECT_LT(ep.stats.mean, srw.stats.mean);
}

TEST(MeasureCover, BudgetExhaustionCounted) {
  RunRequest req;
  req.trials = 3;
  req.max_steps = 5;  // absurdly small: cover impossible
  const GraphFactory graphs = [](Rng&) { return cycle_graph(100); };
  const auto res = measure_cover(srw_walk, graphs, req);
  EXPECT_EQ(res.uncovered_trials, 3u);
  EXPECT_DOUBLE_EQ(res.stats.mean, 5.0);
}

TEST(MeasureCover, ReproducibleForSameSeed) {
  RunRequest req;
  req.trials = 4;
  req.seed = 21;
  const GraphFactory graphs = [](Rng& rng) {
    return random_regular_connected(60, 4, rng);
  };
  const auto a = measure_cover(eprocess_walk, graphs, req);
  const auto b = measure_cover(eprocess_walk, graphs, req);
  EXPECT_EQ(a.samples, b.samples);
}

}  // namespace
}  // namespace ewalk
