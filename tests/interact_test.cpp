// Tests for the interacting-walker subsystem: TokenSystem bookkeeping, the
// three token processes (coalescing SRW, coalescing E-walk, Herman ring),
// the token-population predicates + run_until_process driver, registry
// dispatch, and measure_coalescence (including thread-count invariance of
// its per-trial streams).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "covertime/experiment.hpp"
#include "engine/budget.hpp"
#include "engine/driver.hpp"
#include "engine/params.hpp"
#include "engine/registry.hpp"
#include "engine/token_process.hpp"
#include "graph/generators.hpp"
#include "interact/coalescing.hpp"
#include "interact/herman.hpp"
#include "interact/token_system.hpp"
#include "walks/rules.hpp"

namespace ewalk {
namespace {

// ---- TokenSystem ----------------------------------------------------------

TEST(TokenSystem, PlacesAndMovesTokens) {
  TokenSystem ts(/*n=*/8, {0, 4});
  EXPECT_EQ(ts.initial_tokens(), 2u);
  EXPECT_EQ(ts.tokens_alive(), 2u);
  EXPECT_EQ(ts.occupant(0), 0u);
  EXPECT_EQ(ts.occupant(4), 1u);
  EXPECT_EQ(ts.occupant(2), TokenSystem::kNoToken);
  EXPECT_EQ(ts.first_meeting_step(), kNotCovered);
  EXPECT_EQ(ts.coalescence_step(), kNotCovered);

  EXPECT_EQ(ts.move(0, 1, 1), TokenSystem::kNoToken);
  EXPECT_EQ(ts.position(0), 1u);
  EXPECT_EQ(ts.occupant(0), TokenSystem::kNoToken);
  EXPECT_EQ(ts.occupant(1), 0u);
}

TEST(TokenSystem, CollisionAndMergeBookkeeping) {
  TokenSystem ts(/*n=*/8, {0, 1});
  const auto other = ts.move(0, 1, 7);  // token 0 steps onto token 1
  EXPECT_EQ(other, 1u);
  EXPECT_EQ(ts.first_meeting_step(), 7u);
  EXPECT_EQ(ts.collisions(), 1u);
  ts.kill(0, 7);  // merge: mover dies
  EXPECT_EQ(ts.tokens_alive(), 1u);
  EXPECT_FALSE(ts.alive(0));
  EXPECT_TRUE(ts.alive(1));
  EXPECT_EQ(ts.occupant(1), 1u);  // occupant keeps the vertex
  EXPECT_EQ(ts.coalescence_step(), 7u);
}

TEST(TokenSystem, RejectsBadStarts) {
  EXPECT_THROW(TokenSystem(8, {}), std::invalid_argument);
  EXPECT_THROW(TokenSystem(8, {0, 0}), std::invalid_argument);
  EXPECT_THROW(TokenSystem(8, {0, 99}), std::invalid_argument);
}

TEST(TokenSystem, SpreadStartsAreDistinctAndWrap) {
  const auto starts = spread_token_starts(10, 5, 3);
  EXPECT_EQ(starts.size(), 5u);
  for (std::size_t i = 0; i < starts.size(); ++i)
    for (std::size_t j = i + 1; j < starts.size(); ++j)
      EXPECT_NE(starts[i], starts[j]);
  EXPECT_THROW(spread_token_starts(4, 5, 0), std::invalid_argument);
  EXPECT_THROW(spread_token_starts(4, 0, 0), std::invalid_argument);
}

// ---- CoalescingRW ---------------------------------------------------------

TEST(CoalescingRW, PopulationNonIncreasingAndCoalescesOnCompleteGraph) {
  const Graph g = complete_graph(256);
  CoalescingRW walk(g, spread_token_starts(g.num_vertices(), 16, 0));
  EXPECT_EQ(walk.tokens_remaining(), 16u);
  EXPECT_EQ(walk.initial_tokens(), 16u);
  Rng rng(42);
  std::uint32_t prev = walk.tokens_remaining();
  const std::uint64_t budget = default_step_budget(g);
  while (walk.tokens_remaining() > 1 && walk.steps() < budget) {
    walk.step(rng);
    EXPECT_LE(walk.tokens_remaining(), prev);
    prev = walk.tokens_remaining();
  }
  ASSERT_EQ(walk.tokens_remaining(), 1u);
  EXPECT_EQ(walk.coalescence_step(), walk.steps());
  EXPECT_NE(walk.first_meeting_step(), kNotCovered);
  EXPECT_LE(walk.first_meeting_step(), walk.coalescence_step());
}

TEST(CoalescingRW, DriverAndPredicatesTerminateOnPopulationTargets) {
  const Graph g = complete_graph(128);
  const std::uint64_t budget = default_step_budget(g);

  CoalescingRW to_four(g, spread_token_starts(g.num_vertices(), 12, 0));
  Rng r1(5);
  ASSERT_TRUE(run_until_process(to_four, r1, TokensAtMost{4}, budget));
  EXPECT_LE(to_four.tokens_remaining(), 4u);
  EXPECT_GE(to_four.tokens_remaining(), 1u);

  CoalescingRW meet(g, spread_token_starts(g.num_vertices(), 12, 0));
  Rng r2(5);
  ASSERT_TRUE(run_until_process(meet, r2, TokensHaveMet{}, budget));
  EXPECT_EQ(meet.first_meeting_step(), meet.steps());

  CoalescingRW one(g, spread_token_starts(g.num_vertices(), 12, 0));
  Rng r3(5);
  ASSERT_TRUE(run_until_process(one, r3, CoalescedToOne{}, budget));
  EXPECT_EQ(one.tokens_remaining(), 1u);
}

TEST(CoalescingRW, SurvivorKeepsWalkingAndCovers) {
  // After coalescence the last token is a plain SRW; cover predicates still
  // terminate, so token processes stay drivable by everything WalkProcess is.
  const Graph g = complete_graph(64);
  CoalescingRW walk(g, spread_token_starts(g.num_vertices(), 4, 0));
  Rng rng(9);
  ASSERT_TRUE(run_until(walk, rng, VertexCovered{}, default_step_budget(g)));
  EXPECT_TRUE(walk.cover().all_vertices_covered());
}

// ---- CoalescingEWalk ------------------------------------------------------

TEST(CoalescingEWalk, CoalescesAndTracksSharedEdgeColouring) {
  const Graph g = hypercube(6);
  CoalescingEWalk walk(g, spread_token_starts(g.num_vertices(), 8, 0),
                       std::make_unique<UniformRule>());
  Rng rng(7);
  ASSERT_TRUE(run_until_process(walk, rng, CoalescedToOne{},
                                default_step_budget(g)));
  EXPECT_EQ(walk.tokens_remaining(), 1u);
  // Every step is blue or red, and blue steps mark exactly one fresh edge.
  EXPECT_EQ(walk.blue_steps() + walk.red_steps(), walk.steps());
  EXPECT_EQ(walk.cover().edges_covered(), walk.blue_steps());
}

TEST(CoalescingEWalk, WorksWithEveryRule) {
  const Graph g = hypercube(5);
  Rng rule_rng(3);
  for (const auto& rule_name : rule_names()) {
    CoalescingEWalk walk(g, spread_token_starts(g.num_vertices(), 4, 0),
                         make_rule(rule_name, g, rule_rng));
    Rng rng(11);
    EXPECT_TRUE(run_until_process(walk, rng, CoalescedToOne{},
                                  default_step_budget(g)))
        << rule_name;
  }
}

// ---- HermanRing -----------------------------------------------------------

TEST(HermanRing, PreservesOddParityUntilSingleToken) {
  const Graph g = cycle_graph(101);
  HermanRing walk(g, spread_token_starts(g.num_vertices(), 7, 0));
  Rng rng(13);
  const std::uint64_t budget = default_step_budget(g);
  while (walk.tokens_remaining() > 1 && walk.steps() < budget) {
    walk.step(rng);
    EXPECT_EQ(walk.tokens_remaining() % 2, 1u);
  }
  ASSERT_EQ(walk.tokens_remaining(), 1u);
  EXPECT_EQ(walk.annihilations(), 3u);  // 7 -> 5 -> 3 -> 1
  EXPECT_EQ(walk.coalescence_step(), walk.steps());
}

TEST(HermanRing, DerivedOrientationIsASingleCycle) {
  const Graph g = cycle_graph(17);
  HermanRing walk(g, {0});
  Vertex v = 0;
  for (Vertex i = 0; i < 17; ++i) v = walk.successor(v);
  EXPECT_EQ(v, 0u);  // back after exactly n hops
  Vertex w = walk.successor(0);
  Vertex count = 1;
  while (w != 0) {
    w = walk.successor(w);
    ++count;
  }
  EXPECT_EQ(count, 17u);
}

TEST(HermanRing, RejectsInvalidConfigurations) {
  EXPECT_THROW(HermanRing(cycle_graph(8), {0, 4}), std::invalid_argument);
  EXPECT_THROW(HermanRing(hypercube(3), {0, 1, 2}), std::invalid_argument);
  EXPECT_THROW(HermanRing(complete_graph(5), {0, 1, 2}), std::invalid_argument);
  // Two disjoint cycles: 2-regular but not a single cycle.
  GraphBuilder b(6);
  for (Vertex v = 0; v < 3; ++v) b.add_edge(v, (v + 1) % 3);
  for (Vertex v = 0; v < 3; ++v) b.add_edge(3 + v, 3 + (v + 1) % 3);
  EXPECT_THROW(HermanRing(b.build(), {0, 1, 4}), std::invalid_argument);
}

// ---- Registry dispatch ----------------------------------------------------

TEST(InteractRegistry, AllThreeProcessesConstructByName) {
  const Graph cyc = cycle_graph(64);
  for (const char* name : {"coalescing-srw", "coalescing-ewalk", "herman"}) {
    ASSERT_TRUE(ProcessRegistry::instance().contains(name)) << name;
    Rng rng(2);
    auto walk = ProcessRegistry::instance().create(
        name, cyc, ParamMap{{"tokens", "3"}}, rng);
    auto* tokens = dynamic_cast<TokenProcess*>(walk.get());
    ASSERT_NE(tokens, nullptr) << name;
    EXPECT_EQ(tokens->tokens_remaining(), 3u) << name;
    EXPECT_TRUE(run_until_process(*tokens, rng, CoalescedToOne{},
                                  default_step_budget(cyc)))
        << name;
    EXPECT_EQ(tokens->tokens_remaining(), 1u) << name;
  }
}

TEST(InteractRegistry, HermanRejectsEvenTokensThroughRegistry) {
  const Graph cyc = cycle_graph(32);
  Rng rng(2);
  EXPECT_THROW(ProcessRegistry::instance().create("herman", cyc,
                                                  ParamMap{{"tokens", "4"}}, rng),
               std::invalid_argument);
}

// ---- measure_coalescence --------------------------------------------------

TEST(MeasureCoalescence, CompleteGraphCoalescesInLinearTime) {
  RunRequest req;
  req.trials = 4;
  req.seed = 17;
  const GraphFactory graphs = [](Rng&) { return complete_graph(256); };
  const TokenProcessFactory tokens =
      [](const Graph& g, Rng&) -> std::unique_ptr<TokenProcess> {
    return std::make_unique<CoalescingRW>(
        g, spread_token_starts(g.num_vertices(), 16, 0));
  };
  const auto res = measure_coalescence(tokens, graphs, req);
  EXPECT_EQ(res.unfinished_trials, 0u);
  EXPECT_EQ(res.samples.size(), 4u);
  EXPECT_GT(res.stats.mean, 0.0);
  // Θ(n) regime: well under n log^2 n, and meetings precede coalescence.
  EXPECT_LT(res.stats.mean, 256.0 * 64);
  for (std::size_t i = 0; i < res.samples.size(); ++i)
    EXPECT_LE(res.meeting_samples[i], res.samples[i]);
}

TEST(MeasureCoalescence, TargetTokensStopsEarly) {
  RunRequest req;
  req.trials = 3;
  req.seed = 29;
  const GraphFactory graphs = [](Rng&) { return complete_graph(128); };
  const TokenProcessFactory tokens =
      [](const Graph& g, Rng&) -> std::unique_ptr<TokenProcess> {
    return std::make_unique<CoalescingRW>(
        g, spread_token_starts(g.num_vertices(), 16, 0));
  };
  req.target_tokens = 1;
  const auto full = measure_coalescence(tokens, graphs, req);
  req.target_tokens = 4;
  const auto partial = measure_coalescence(tokens, graphs, req);
  EXPECT_EQ(partial.unfinished_trials, 0u);
  for (std::size_t i = 0; i < partial.samples.size(); ++i)
    EXPECT_LE(partial.samples[i], full.samples[i]);
}

TEST(MeasureCoalescence, BudgetExhaustionCounted) {
  RunRequest req;
  req.trials = 3;
  req.max_steps = 2;  // absurdly small: coalescence impossible
  const GraphFactory graphs = [](Rng&) { return cycle_graph(64); };
  const TokenProcessFactory tokens =
      [](const Graph& g, Rng&) -> std::unique_ptr<TokenProcess> {
    return std::make_unique<CoalescingRW>(
        g, spread_token_starts(g.num_vertices(), 8, 0));
  };
  const auto res = measure_coalescence(tokens, graphs, req);
  EXPECT_EQ(res.unfinished_trials, 3u);
  EXPECT_DOUBLE_EQ(res.stats.mean, 2.0);
}

TEST(MeasureCoalescence, SeedForSeedIdenticalAcrossThreadCounts) {
  // The documented determinism contract: trial i's stream is a pure
  // function of (master_seed, i), so 1 worker and 8 workers must produce
  // bit-identical sample vectors.
  RunRequest req;
  req.trials = 8;
  req.seed = 123;
  const GraphFactory graphs = [](Rng& rng) {
    return random_regular_connected(96, 4, rng);
  };
  const TokenProcessFactory tokens =
      [](const Graph& g, Rng&) -> std::unique_ptr<TokenProcess> {
    return std::make_unique<CoalescingRW>(
        g, spread_token_starts(g.num_vertices(), 6, 0));
  };
  req.threads = 1;
  const auto serial = measure_coalescence(tokens, graphs, req);
  req.threads = 8;
  const auto parallel = measure_coalescence(tokens, graphs, req);
  EXPECT_EQ(serial.samples, parallel.samples);
  EXPECT_EQ(serial.meeting_samples, parallel.meeting_samples);
}

}  // namespace
}  // namespace ewalk
