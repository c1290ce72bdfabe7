// Tests for the interleaved trial bundles (engine/bundle.hpp): bundled
// execution must be bit-identical to sequential run_until_process per
// trial — same stopping steps, same trajectories, same rng states — for
// both fast paths (SRW, E-process), for the generic loop (multi E-process,
// mixed bundles), and through the covertime driver across bundle widths and
// thread counts. Also pins the retirement semantics run_until_process
// defines: predicate before budget, entry checks before the first step.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/adapters.hpp"
#include "engine/bundle.hpp"
#include "engine/driver.hpp"
#include "covertime/experiment.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "walks/multi_eprocess.hpp"
#include "walks/rules.hpp"
#include "walks/srw.hpp"

namespace ewalk {
namespace {

constexpr std::uint64_t kBudget = 2000000;

bool vertices_covered(const WalkProcess& p) {
  return p.cover().all_vertices_covered();
}

// Snapshot of everything a trial's execution determines: if all of these
// match between sequential and bundled runs, the trajectories were
// identical (same steps from the same private stream) and the streams are
// left in the same state for any later consumer.
struct TrialOutcome {
  bool finished;
  std::uint64_t steps;
  Vertex current;
  std::uint64_t vertex_cover_step;
  std::uint64_t next_draw;  // first post-run output of the trial's stream
};

bool operator==(const TrialOutcome& a, const TrialOutcome& b) {
  return a.finished == b.finished && a.steps == b.steps &&
         a.current == b.current &&
         a.vertex_cover_step == b.vertex_cover_step &&
         a.next_draw == b.next_draw;
}

// Runs `factories[i](g, rng_i)` trials sequentially (reference) and bundled,
// from identical per-trial streams, and expects identical outcomes. Trial i
// gets budgets[i], or kBudget when `budgets` is empty.
using Factory =
    std::function<std::unique_ptr<WalkProcess>(const Graph&, Rng&)>;

std::uint64_t budget_of(const std::vector<std::uint64_t>& budgets,
                        std::size_t i) {
  return budgets.empty() ? kBudget : budgets[i];
}

std::vector<TrialOutcome> run_sequential(
    const Graph& g, const std::vector<Factory>& factories, std::uint64_t seed,
    std::uint64_t stride, const std::vector<std::uint64_t>& budgets = {}) {
  std::vector<Rng> streams = derive_streams(seed, factories.size());
  std::vector<TrialOutcome> outcomes;
  for (std::size_t i = 0; i < factories.size(); ++i) {
    auto walk = factories[i](g, streams[i]);
    const bool finished = run_until_process(
        *walk, streams[i], vertices_covered, budget_of(budgets, i), stride);
    outcomes.push_back(TrialOutcome{finished, walk->steps(), walk->current(),
                                    walk->cover().vertex_cover_step(),
                                    streams[i].next_u64()});
  }
  return outcomes;
}

std::vector<TrialOutcome> run_bundled(
    const Graph& g, const std::vector<Factory>& factories, std::uint64_t seed,
    std::uint64_t stride, const std::vector<std::uint64_t>& budgets = {}) {
  std::vector<Rng> streams = derive_streams(seed, factories.size());
  std::vector<std::unique_ptr<WalkProcess>> walks;
  walks.reserve(factories.size());
  std::vector<BundleTrial> trials(factories.size());
  for (std::size_t i = 0; i < factories.size(); ++i) {
    walks.push_back(factories[i](g, streams[i]));
    trials[i] = BundleTrial{walks[i].get(), &streams[i], budget_of(budgets, i),
                            stride};
  }
  const std::vector<std::uint8_t> finished =
      run_trial_bundle(std::span<const BundleTrial>(trials), vertices_covered);
  std::vector<TrialOutcome> outcomes;
  for (std::size_t i = 0; i < factories.size(); ++i)
    outcomes.push_back(TrialOutcome{finished[i] != 0, walks[i]->steps(),
                                    walks[i]->current(),
                                    walks[i]->cover().vertex_cover_step(),
                                    streams[i].next_u64()});
  return outcomes;
}

void expect_bundle_matches_sequential(const std::vector<Factory>& factories,
                                      std::uint64_t seed,
                                      std::uint64_t stride = 1) {
  Rng graph_rng(7);
  const Graph g = random_regular_connected(200, 4, graph_rng);
  const auto sequential = run_sequential(g, factories, seed, stride);
  const auto bundled = run_bundled(g, factories, seed, stride);
  ASSERT_EQ(sequential.size(), bundled.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_TRUE(sequential[i] == bundled[i]) << "trial " << i << " diverged";
    EXPECT_TRUE(sequential[i].finished) << "trial " << i
                                        << " should cover within budget";
  }
}

Factory srw_factory() {
  return [](const Graph& g, Rng&) {
    return std::make_unique<SimpleRandomWalk>(g, /*start=*/0);
  };
}

Factory eprocess_factory() {
  return [](const Graph& g, Rng&) {
    return std::make_unique<EProcessHandle>(g, /*start=*/0,
                                            std::make_unique<UniformRule>());
  };
}

Factory multi_factory() {
  return [](const Graph& g, Rng&) {
    return std::make_unique<MultiEProcess>(
        g, std::vector<Vertex>{0, 1, 2}, std::make_unique<UniformRule>());
  };
}

TEST(TrialBundle, SrwBundleIsBitIdenticalToSequential) {
  expect_bundle_matches_sequential(std::vector<Factory>(4, srw_factory()), 11);
}

TEST(TrialBundle, EProcessBundleIsBitIdenticalToSequential) {
  expect_bundle_matches_sequential(std::vector<Factory>(4, eprocess_factory()),
                                   12);
}

TEST(TrialBundle, MultiEProcessBundleIsBitIdenticalToSequential) {
  expect_bundle_matches_sequential(std::vector<Factory>(3, multi_factory()),
                                   13);
}

TEST(TrialBundle, MixedBundleTakesGenericPathAndStaysIdentical) {
  // SRW + E-process in one bundle: no homogeneous fast path applies, so
  // this exercises the virtual-dispatch loop.
  expect_bundle_matches_sequential(
      {srw_factory(), eprocess_factory(), srw_factory(), eprocess_factory()},
      14);
}

TEST(TrialBundle, WideCheckStrideMatchesSequentialOvershoot) {
  // stride > 1 makes run_until_process overshoot the exact cover step by up
  // to stride - 1 transitions; the bundle must overshoot identically.
  expect_bundle_matches_sequential(std::vector<Factory>(4, srw_factory()), 15,
                                   /*stride=*/97);
  expect_bundle_matches_sequential(
      std::vector<Factory>(4, eprocess_factory()), 16, /*stride=*/4096);
}

TEST(TrialBundle, SingleTrialBundleMatchesSequential) {
  expect_bundle_matches_sequential(std::vector<Factory>(1, srw_factory()), 17);
}

TEST(TrialBundle, LastSurvivorInSingleLiveLoopMatchesSequential) {
  // Budgets far apart make the four trials stop at four different steps:
  // the bundle narrows to one live trial long before the last one stops,
  // so that trial finishes in the single-live loop. Its stopping step and
  // its stream's state after the run must still match the sequential run.
  Rng graph_rng(7);
  const Graph g = random_regular_connected(200, 4, graph_rng);
  const std::vector<Factory> factories = {srw_factory(), eprocess_factory(),
                                          srw_factory(), eprocess_factory()};
  const std::vector<std::uint64_t> budgets = {40, 150, 90, kBudget};
  for (const std::uint64_t stride : {1u, 7u}) {
    const auto sequential = run_sequential(g, factories, 18, stride, budgets);
    const auto bundled = run_bundled(g, factories, 18, stride, budgets);
    for (std::size_t i = 0; i < factories.size(); ++i)
      EXPECT_TRUE(sequential[i] == bundled[i])
          << "trial " << i << " diverged at stride " << stride;
    EXPECT_EQ(bundled[0].steps, 40u);
    EXPECT_EQ(bundled[1].steps, 150u);
    EXPECT_EQ(bundled[2].steps, 90u);
    EXPECT_TRUE(bundled[3].finished);
    EXPECT_GT(bundled[3].steps, 150u);  // ran alone after trial 1 stopped
  }
}

TEST(TrialBundle, PredicateTrueAtEntryRetiresWithoutStepping) {
  Rng graph_rng(7);
  const Graph g = random_regular_connected(60, 4, graph_rng);
  Rng stream(21);
  SimpleRandomWalk walk(g, 0);
  BundleTrial trial{&walk, &stream, kBudget, 1};
  const Rng stream_before = stream;
  const auto finished = run_trial_bundle(
      std::span<const BundleTrial>(&trial, 1),
      [](const WalkProcess&) { return true; });
  EXPECT_EQ(finished[0], 1);
  EXPECT_EQ(walk.steps(), 0u);  // never stepped
  Rng untouched = stream_before;
  EXPECT_EQ(stream.next_u64(), untouched.next_u64());  // stream not consumed
}

TEST(TrialBundle, ExhaustedBudgetAtEntryRetiresUnfinished) {
  Rng graph_rng(7);
  const Graph g = random_regular_connected(60, 4, graph_rng);
  Rng stream(22);
  SimpleRandomWalk walk(g, 0);
  BundleTrial trial{&walk, &stream, /*max_steps=*/0, 1};
  const auto finished =
      run_trial_bundle(std::span<const BundleTrial>(&trial, 1),
                       [](const WalkProcess&) { return false; });
  EXPECT_EQ(finished[0], 0);
  EXPECT_EQ(walk.steps(), 0u);
}

TEST(TrialBundle, BudgetBoundsEveryTrialExactly) {
  Rng graph_rng(7);
  const Graph g = random_regular_connected(60, 4, graph_rng);
  std::vector<Rng> streams = derive_streams(23, 4);
  std::vector<SimpleRandomWalk> walks;
  walks.reserve(4);
  std::vector<BundleTrial> trials(4);
  for (std::size_t i = 0; i < 4; ++i) {
    walks.emplace_back(g, 0);
    trials[i] = BundleTrial{&walks[i], &streams[i], /*max_steps=*/100 + i, 7};
  }
  const auto finished =
      run_trial_bundle(std::span<const BundleTrial>(trials),
                       [](const WalkProcess&) { return false; });
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(finished[i], 0);
    EXPECT_EQ(walks[i].steps(), 100 + i);  // stops exactly at its own budget
  }
}

TEST(TrialBundle, MeasureCoverSamplesInvariantAcrossWidthsAndThreads) {
  // The driver-level contract the sweep and covertime layers rely on:
  // bundling is a scheduling detail, never a statistics change.
  const GraphFactory graphs = [](Rng& rng) {
    return random_regular_connected(100, 4, rng);
  };
  const ProcessFactory processes = [](const Graph& g, Rng&) {
    return std::make_unique<EProcessHandle>(g, 0,
                                            std::make_unique<UniformRule>());
  };
  RunRequest req;
  req.trials = 8;
  req.seed = 2024;
  req.threads = 1;
  req.bundle_width = 1;
  const std::vector<double> reference =
      measure_cover(processes, graphs, req).samples;
  ASSERT_EQ(reference.size(), 8u);
  for (const std::uint32_t width : {2u, 4u, 8u, 16u}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      req.bundle_width = width;
      req.threads = threads;
      const auto result = measure_cover(processes, graphs, req);
      EXPECT_EQ(result.samples, reference)
          << "width " << width << ", threads " << threads;
    }
  }
}

}  // namespace
}  // namespace ewalk
