// Tests for the E-process: the paper's Observations 10–12, equation (3),
// rule independence, and bookkeeping integrity. Parameterized suites sweep
// even-degree graph families × choice rules × seeds.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "analysis/blue.hpp"
#include "engine/driver.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "walks/eprocess.hpp"
#include "walks/rules.hpp"

namespace ewalk {
namespace {

enum class GraphKind { kCycle, kTorus, kRandom4Regular, kRandom6Regular, kHamUnion, kK5, kMultigraph4Regular };
enum class RuleKind { kUniform, kFirst, kLast, kRoundRobin, kAdversary, kGreedy };

Graph make_graph(GraphKind kind, Rng& rng) {
  switch (kind) {
    case GraphKind::kCycle:
      return cycle_graph(60);
    case GraphKind::kTorus:
      return torus_2d(8, 8);
    case GraphKind::kRandom4Regular:
      return random_regular_connected(80, 4, rng);
    case GraphKind::kRandom6Regular:
      return random_regular_connected(60, 6, rng);
    case GraphKind::kHamUnion:
      return hamiltonian_cycle_union(70, 2, rng);
    case GraphKind::kK5:
      return complete_graph(5);
    case GraphKind::kMultigraph4Regular: {
      // Configuration-model multigraph with even degrees (loops allowed),
      // resampled until connected so cover is reachable.
      for (;;) {
        Graph g = configuration_model(std::vector<std::uint32_t>(24, 4), rng,
                                      /*simple=*/false);
        if (is_connected(g)) return g;
      }
    }
  }
  throw std::logic_error("unreachable");
}

std::unique_ptr<UnvisitedEdgeRule> make_rule(RuleKind kind, const Graph& g) {
  switch (kind) {
    case RuleKind::kUniform:
      return std::make_unique<UniformRule>();
    case RuleKind::kFirst:
      return std::make_unique<FirstSlotRule>();
    case RuleKind::kLast:
      return std::make_unique<LastSlotRule>();
    case RuleKind::kRoundRobin:
      return std::make_unique<RoundRobinRule>(g.num_vertices());
    case RuleKind::kAdversary:
      return std::make_unique<PreferVisitedEndpointRule>();
    case RuleKind::kGreedy:
      return std::make_unique<PreferUnvisitedEndpointRule>();
  }
  throw std::logic_error("unreachable");
}

using Param = std::tuple<GraphKind, RuleKind, std::uint64_t>;

class EProcessInvariants : public ::testing::TestWithParam<Param> {};

// Observation 10: on even-degree graphs every *completed* blue phase starts
// and ends at the same vertex.
TEST_P(EProcessInvariants, BluePhasesReturnToStart) {
  const auto [gk, rk, seed] = GetParam();
  Rng rng(seed);
  const Graph g = make_graph(gk, rng);
  ASSERT_TRUE(g.all_degrees_even());
  auto rule = make_rule(rk, g);
  EProcess walk(g, 0, *rule, EProcessOptions{.record_phases = true});
  ASSERT_TRUE(run_until(walk, rng, EdgesCovered{}, 1u << 24));

  const auto& phases = walk.phases();
  ASSERT_FALSE(phases.empty());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (phases[i].color != StepColor::kBlue) continue;
    // A blue phase is completed once a later phase exists.
    if (i + 1 < phases.size()) {
      EXPECT_EQ(phases[i].start_vertex, phases[i].end_vertex)
          << "blue phase " << i << " did not return to its start";
    }
  }
  // The final phase of an edge-cover run is blue and, on even-degree
  // graphs, also closes at its start.
  EXPECT_EQ(phases.back().color, StepColor::kBlue);
  EXPECT_EQ(phases.back().start_vertex, phases.back().end_vertex);
}

// Observation 11: whenever the walk is in a red phase, every vertex has even
// blue degree and blue components are even-degree edge-induced subgraphs.
TEST_P(EProcessInvariants, BlueComponentsEvenDuringRedPhase) {
  const auto [gk, rk, seed] = GetParam();
  Rng rng(seed);
  const Graph g = make_graph(gk, rng);
  auto rule = make_rule(rk, g);
  EProcess walk(g, 0, *rule);
  int checks = 0;
  for (std::uint64_t i = 0; i < 50000 && !walk.cover().all_edges_covered(); ++i) {
    const StepColor color = walk.step(rng);
    if (color == StepColor::kRed && checks < 25) {
      ++checks;
      const auto report = analyze_blue(g, walk.cover().edge_visited_flags(),
                                       walk.cover().visit_counts());
      for (const auto& c : report.components)
        EXPECT_TRUE(c.all_degrees_even) << "blue component with odd degree during red phase";
      // Any unvisited vertex must lie in some blue component (Obs 11.1).
      std::uint64_t unvisited_in_components = 0;
      for (const auto& c : report.components)
        if (c.contains_unvisited_vertex) ++unvisited_in_components;
      if (report.unvisited_vertices_total > 0) {
        EXPECT_GT(unvisited_in_components, 0u);
      }
    }
  }
}

// Observation 12: t = t_R + t_B with t_B <= m at all times.
TEST_P(EProcessInvariants, BlueStepsNeverExceedEdges) {
  const auto [gk, rk, seed] = GetParam();
  Rng rng(seed);
  const Graph g = make_graph(gk, rng);
  auto rule = make_rule(rk, g);
  EProcess walk(g, 0, *rule);
  ASSERT_TRUE(run_until(walk, rng, EdgesCovered{}, 1u << 24));
  EXPECT_EQ(walk.steps(), walk.red_steps() + walk.blue_steps());
  EXPECT_LE(walk.blue_steps(), static_cast<std::uint64_t>(g.num_edges()));
  // Edge cover => every edge was crossed by a blue transition exactly once.
  EXPECT_EQ(walk.blue_steps(), static_cast<std::uint64_t>(g.num_edges()));
}

// Equation (3): m <= C_E; and since cover happened, the last blue step is
// the edge cover step.
TEST_P(EProcessInvariants, EdgeCoverAtLeastM) {
  const auto [gk, rk, seed] = GetParam();
  Rng rng(seed);
  const Graph g = make_graph(gk, rng);
  auto rule = make_rule(rk, g);
  EProcess walk(g, 0, *rule);
  ASSERT_TRUE(run_until(walk, rng, EdgesCovered{}, 1u << 24));
  EXPECT_GE(walk.cover().edge_cover_step(), static_cast<std::uint64_t>(g.num_edges()));
}

TEST_P(EProcessInvariants, VertexCoverImpliesAllVisited) {
  const auto [gk, rk, seed] = GetParam();
  Rng rng(seed);
  const Graph g = make_graph(gk, rng);
  auto rule = make_rule(rk, g);
  EProcess walk(g, 0, *rule);
  ASSERT_TRUE(run_until(walk, rng, VertexCovered{}, 1u << 24));
  EXPECT_TRUE(walk.cover().all_vertices_covered());
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    EXPECT_TRUE(walk.cover().vertex_visited(v));
  EXPECT_LE(walk.cover().vertex_cover_step(), walk.steps());
}

// Blue-degree bookkeeping: blue_degree(v) must equal the count of unvisited
// incident edges, at every sampled moment.
TEST_P(EProcessInvariants, BlueDegreeMatchesVisitedFlags) {
  const auto [gk, rk, seed] = GetParam();
  Rng rng(seed);
  const Graph g = make_graph(gk, rng);
  auto rule = make_rule(rk, g);
  EProcess walk(g, 0, *rule);
  for (int sample = 0; sample < 40 && !walk.cover().all_edges_covered(); ++sample) {
    for (int i = 0; i < 97 && !walk.cover().all_edges_covered(); ++i) walk.step(rng);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      std::uint32_t expected = 0;
      for (const Slot& s : g.slots(v))
        if (!walk.cover().edge_visited(s.edge)) ++expected;
      ASSERT_EQ(walk.blue_degree(v), expected) << "vertex " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EvenGraphsRulesSeeds, EProcessInvariants,
    ::testing::Combine(::testing::Values(GraphKind::kCycle, GraphKind::kTorus,
                                         GraphKind::kRandom4Regular,
                                         GraphKind::kRandom6Regular,
                                         GraphKind::kHamUnion,
                                         GraphKind::kMultigraph4Regular),
                       ::testing::Values(RuleKind::kUniform, RuleKind::kFirst,
                                         RuleKind::kRoundRobin, RuleKind::kAdversary),
                       ::testing::Values<std::uint64_t>(1, 2)));

// A lighter sweep exercising the remaining rules.
INSTANTIATE_TEST_SUITE_P(
    ExtraRules, EProcessInvariants,
    ::testing::Combine(::testing::Values(GraphKind::kRandom4Regular, GraphKind::kK5),
                       ::testing::Values(RuleKind::kLast, RuleKind::kGreedy),
                       ::testing::Values<std::uint64_t>(3)));

// ---- Non-parameterized behaviour -------------------------------------------

TEST(EProcess, FixedPriorityRuleIsAValidOfflineAdversary) {
  Rng grng(31);
  const Graph g = random_regular_connected(100, 4, grng);
  Rng prio_rng(32);
  FixedPriorityRule rule(g.num_edges(), prio_rng);
  Rng rng(33);
  EProcess walk(g, 0, rule, EProcessOptions{.record_phases = true});
  ASSERT_TRUE(run_until(walk, rng, EdgesCovered{}, 1u << 24));
  // Obs 10 still holds under the offline adversary.
  const auto& phases = walk.phases();
  for (std::size_t i = 0; i + 1 < phases.size(); ++i) {
    if (phases[i].color != StepColor::kBlue) continue;
    EXPECT_EQ(phases[i].start_vertex, phases[i].end_vertex);
  }
}

TEST(EProcess, FixedPriorityIsDeterministicGivenPermutation) {
  Rng grng(34);
  const Graph g = random_regular_connected(60, 4, grng);
  std::vector<EdgeId> prio(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) prio[e] = g.num_edges() - 1 - e;
  const auto run = [&]() {
    FixedPriorityRule rule(prio);
    Rng rng(35);
    EProcess walk(g, 0, rule);
    run_until(walk, rng, VertexCovered{}, 1u << 24);
    return walk.cover().vertex_cover_step();
  };
  EXPECT_EQ(run(), run());
}

TEST(EProcess, CoversMargulisExpanderLinearly) {
  const Graph g = margulis_expander(40);  // n = 1600, 8-regular multigraph
  ASSERT_TRUE(g.all_degrees_even());
  Rng rng(36);
  UniformRule rule;
  EProcess walk(g, 0, rule);
  ASSERT_TRUE(run_until(walk, rng, VertexCovered{}, 1u << 26));
  EXPECT_LT(walk.cover().vertex_cover_step(), 10u * g.num_vertices());
}

TEST(EProcess, FirstPhaseIsBlueAndClosesAtStart) {
  // On any even-degree graph the walk starts with a blue phase from the
  // start vertex, which must close there (Observation 10's base case).
  Rng rng(5);
  const Graph g = torus_2d(6, 6);
  UniformRule rule;
  EProcess walk(g, 7, rule, EProcessOptions{.record_phases = true});
  // Step until the first red transition.
  while (walk.step(rng) == StepColor::kBlue) {
  }
  const auto& phases = walk.phases();
  ASSERT_GE(phases.size(), 2u);
  EXPECT_EQ(phases[0].color, StepColor::kBlue);
  EXPECT_EQ(phases[0].start_vertex, 7u);
  EXPECT_EQ(phases[0].end_vertex, 7u);
}

TEST(EProcess, OddDegreeGraphsBluePhasesMayStrand) {
  // On 3-regular graphs a blue phase can end away from its start — this is
  // exactly the Section 5 phenomenon. Just check the process still covers.
  Rng rng(6);
  const Graph g = random_regular_connected(50, 3, rng);
  UniformRule rule;
  EProcess walk(g, 0, rule);
  ASSERT_TRUE(run_until(walk, rng, EdgesCovered{}, 1u << 24));
  EXPECT_TRUE(walk.cover().all_edges_covered());
}

TEST(EProcess, SelfLoopConsumesBothSlots) {
  GraphBuilder b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  const Graph g = b.build();  // degrees: 0 -> 4, 1 -> 2, even
  Rng rng(7);
  UniformRule rule;
  EProcess walk(g, 0, rule);
  ASSERT_TRUE(run_until(walk, rng, EdgesCovered{}, 10000));
  EXPECT_EQ(walk.blue_degree(0), 0u);
  EXPECT_EQ(walk.blue_degree(1), 0u);
}

TEST(EProcess, DeterministicGivenSeedAndRule) {
  Rng graph_rng(8);
  const Graph g = random_regular_connected(60, 4, graph_rng);
  const auto run = [&](std::uint64_t seed) {
    Rng rng(seed);
    UniformRule rule;
    EProcess walk(g, 0, rule);
    run_until(walk, rng, VertexCovered{}, 1u << 24);
    return walk.cover().vertex_cover_step();
  };
  EXPECT_EQ(run(123), run(123));
  // Different seeds almost surely differ on a 60-vertex graph.
  EXPECT_NE(run(123), run(456));
}

TEST(EProcess, RuleOutOfRangeIndexThrows) {
  class BadRule final : public UnvisitedEdgeRule {
   public:
    std::uint32_t choose_index(const EProcessView&, Vertex,
                               std::uint32_t blue_count, Rng&) override {
      return blue_count;  // out of range
    }
  };
  const Graph g = cycle_graph(4);
  BadRule rule;
  EProcess walk(g, 0, rule);
  Rng rng(9);
  EXPECT_THROW(walk.step(rng), std::logic_error);
}

TEST(EProcess, StartVertexOutOfRangeThrows) {
  const Graph g = cycle_graph(4);
  UniformRule rule;
  EXPECT_THROW(EProcess(g, 99, rule), std::invalid_argument);
}

TEST(EProcess, ViewExposesState) {
  const Graph g = cycle_graph(5);
  UniformRule rule;
  EProcess walk(g, 0, rule);
  const BluePartition blue(g);  // fresh: every edge still blue
  const EProcessView view(walk.graph(), walk.cover(), blue, walk.steps());
  EXPECT_EQ(&view.graph(), &g);
  EXPECT_EQ(view.steps(), 0u);
  EXPECT_TRUE(view.cover().vertex_visited(0));
  EXPECT_EQ(view.blue_count(0), g.degree(0));
  EXPECT_EQ(view.blue_slot(0, 0).edge, g.slot(0, 0).edge);
}

TEST(EProcess, GreedyRuleNeverSlowerThanMOnCycle) {
  // On a cycle the blue walk simply traverses the cycle: vertex cover in
  // exactly n-1 steps, edge cover in exactly n steps, for every rule.
  const Graph g = cycle_graph(100);
  for (int pass = 0; pass < 3; ++pass) {
    Rng rng(pass);
    UniformRule rule;
    EProcess walk(g, 0, rule);
    ASSERT_TRUE(run_until(walk, rng, EdgesCovered{}, 1000));
    EXPECT_EQ(walk.cover().vertex_cover_step(), 99u);
    EXPECT_EQ(walk.cover().edge_cover_step(), 100u);
    EXPECT_EQ(walk.red_steps(), 0u);
  }
}

TEST(EProcess, PhasesPartitionSteps) {
  Rng rng(11);
  const Graph g = random_regular_connected(40, 4, rng);
  UniformRule rule;
  EProcess walk(g, 0, rule, EProcessOptions{.record_phases = true});
  ASSERT_TRUE(run_until(walk, rng, EdgesCovered{}, 1u << 24));
  const auto& phases = walk.phases();
  std::uint64_t counted = 0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    EXPECT_LE(phases[i].first_step, phases[i].last_step);
    if (i > 0) {
      EXPECT_EQ(phases[i].first_step, phases[i - 1].last_step + 1);
      EXPECT_NE(phases[i].color, phases[i - 1].color);
      EXPECT_EQ(phases[i].start_vertex, phases[i - 1].end_vertex);
    }
    counted += phases[i].last_step - phases[i].first_step + 1;
  }
  EXPECT_EQ(counted, walk.steps());
}

}  // namespace
}  // namespace ewalk
