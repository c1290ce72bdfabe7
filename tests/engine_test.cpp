// Tests for the unified walk-engine layer: the WalkProcess interface, the
// generic run_until driver (seed-for-seed equivalent to the deleted
// per-class member loops), the process/generator registries, and the
// uniform-rule fast path.
#include <gtest/gtest.h>

#include <stdexcept>

#include "engine/adapters.hpp"
#include "engine/budget.hpp"
#include "engine/driver.hpp"
#include "engine/params.hpp"
#include "engine/registry.hpp"
#include "graph/generators.hpp"
#include "walks/eprocess.hpp"
#include "walks/rules.hpp"
#include "walks/srw.hpp"

namespace ewalk {
namespace {

// ---- Generic driver: seed-for-seed equivalence with the legacy loops ------

// Replica of the member loop every walk class used to carry:
//   while (!covered && steps < max) step(rng);
template <typename Walk>
bool legacy_vertex_cover_loop(Walk& walk, Rng& rng, std::uint64_t max_steps) {
  while (!walk.cover().all_vertices_covered() && walk.steps() < max_steps)
    walk.step(rng);
  return walk.cover().all_vertices_covered();
}

TEST(EngineDriver, ReproducesLegacyEProcessLoopSeedForSeed) {
  Rng grng(7);
  const Graph g = random_regular_connected(200, 4, grng);
  for (const std::uint64_t seed : {1u, 42u, 977u}) {
    UniformRule rule_a;
    EProcess a(g, 0, rule_a);
    Rng ra(seed);
    const bool done_a = legacy_vertex_cover_loop(a, ra, 1u << 22);

    UniformRule rule_b;
    EProcess b(g, 0, rule_b);
    Rng rb(seed);
    const bool done_b = run_until_vertex_cover(b, rb, 1u << 22);

    ASSERT_TRUE(done_a);
    ASSERT_TRUE(done_b);
    EXPECT_EQ(a.steps(), b.steps());
    EXPECT_EQ(a.current(), b.current());
    EXPECT_EQ(a.cover().vertex_cover_step(), b.cover().vertex_cover_step());
    EXPECT_EQ(a.blue_steps(), b.blue_steps());
  }
}

TEST(EngineDriver, ReproducesLegacySrwLoopSeedForSeed) {
  Rng grng(8);
  const Graph g = random_regular_connected(200, 4, grng);
  for (const std::uint64_t seed : {3u, 55u, 1234u}) {
    SimpleRandomWalk a(g, 0);
    Rng ra(seed);
    const bool done_a = legacy_vertex_cover_loop(a, ra, 1u << 22);

    SimpleRandomWalk b(g, 0);
    Rng rb(seed);
    const bool done_b = run_until_vertex_cover(b, rb, 1u << 22);

    ASSERT_TRUE(done_a);
    ASSERT_TRUE(done_b);
    EXPECT_EQ(a.steps(), b.steps());
    EXPECT_EQ(a.current(), b.current());
    EXPECT_EQ(a.cover().vertex_cover_step(), b.cover().vertex_cover_step());
  }
}

TEST(EngineDriver, VisitCountStrideMatchesLegacyBurstLoop) {
  // Legacy SimpleRandomWalk::run_until_visit_count stepped in bursts of n
  // between O(n) min-visit-count checks; the generic driver's stride must
  // reproduce its step counts exactly.
  const Graph g = cycle_graph(40);
  SimpleRandomWalk a(g, 0);
  Rng ra(11);
  while (a.cover().min_visit_count() < 3 && a.steps() < (1u << 22)) {
    const std::uint64_t burst = g.num_vertices();
    for (std::uint64_t i = 0; i < burst && a.steps() < (1u << 22); ++i) a.step(ra);
  }
  ASSERT_GE(a.cover().min_visit_count(), 3u);

  SimpleRandomWalk b(g, 0);
  Rng rb(11);
  ASSERT_TRUE(run_until_visit_count(b, rb, 3, 1u << 22));
  EXPECT_EQ(a.steps(), b.steps());
  EXPECT_EQ(a.current(), b.current());
}

TEST(EngineDriver, BudgetExhaustionReturnsFalseWithoutOverrun) {
  const Graph g = cycle_graph(64);
  SimpleRandomWalk w(g, 0);
  Rng rng(5);
  EXPECT_FALSE(run_until_vertex_cover(w, rng, 10));
  EXPECT_EQ(w.steps(), 10u);
}

TEST(EngineDriver, PredicatesCompose) {
  const Graph g = cycle_graph(32);
  // all_of(vertex, edge) on a cycle == edge cover (edges finish last or
  // together); any_of(vertex, edge) == vertex cover first.
  SimpleRandomWalk a(g, 0);
  Rng ra(9);
  ASSERT_TRUE(run_until(a, ra, all_of(VertexCovered{}, EdgesCovered{}), 1u << 22));
  EXPECT_TRUE(a.cover().all_vertices_covered());
  EXPECT_TRUE(a.cover().all_edges_covered());

  SimpleRandomWalk b(g, 0);
  Rng rb(9);
  ASSERT_TRUE(run_until(b, rb, any_of(VertexCovered{}, EdgesCovered{}), 1u << 22));
  EXPECT_TRUE(b.cover().all_vertices_covered() || b.cover().all_edges_covered());
  EXPECT_LE(b.steps(), a.steps());
}

// ---- Uniform-rule fast path -----------------------------------------------

// A rule with the same draw as UniformRule but *without* the fast-path
// declaration, forcing the generic virtual choose_index dispatch.
class SlowUniformRule final : public UnvisitedEdgeRule {
 public:
  std::uint32_t choose_index(const EProcessView&, Vertex,
                             std::uint32_t blue_count, Rng& rng) override {
    return static_cast<std::uint32_t>(rng.uniform(blue_count));
  }
  const char* name() const override { return "slow-uniform"; }
};

TEST(EngineFastPath, UniformFastPathMatchesGenericDispatchBitForBit) {
  Rng grng(13);
  const Graph g = hamiltonian_cycle_union(150, 3, grng);
  for (const std::uint64_t seed : {2u, 77u}) {
    UniformRule fast;
    EProcess a(g, 0, fast);  // takes the O(1) fast path
    Rng ra(seed);
    ASSERT_TRUE(run_until_edge_cover(a, ra, 1u << 24));

    SlowUniformRule slow;
    EProcess b(g, 0, slow);  // generic virtual dispatch, same draw
    Rng rb(seed);
    ASSERT_TRUE(run_until_edge_cover(b, rb, 1u << 24));

    EXPECT_EQ(a.steps(), b.steps());
    EXPECT_EQ(a.blue_steps(), b.blue_steps());
    EXPECT_EQ(a.red_steps(), b.red_steps());
    EXPECT_EQ(a.current(), b.current());
    EXPECT_EQ(a.cover().edge_cover_step(), b.cover().edge_cover_step());
  }
}

// ---- Registries -------------------------------------------------------------

TEST(ProcessRegistry, RegistersAllSixteenProcesses) {
  const auto names = ProcessRegistry::instance().names();
  EXPECT_EQ(names.size(), 16u);
  for (const char* expected :
       {"eprocess", "multi-eprocess", "srw", "lazy-srw", "rotor", "vertexwalk",
        "rwc", "leastused", "oldest", "weighted", "coalescing-srw",
        "coalescing-ewalk", "herman", "pcf-srw", "pcf-eprocess",
        "pcf-coalescing-srw"}) {
    EXPECT_TRUE(ProcessRegistry::instance().contains(expected)) << expected;
  }
}

TEST(ProcessRegistry, EveryRegisteredProcessCoversCycleAndHypercube) {
  for (const Graph& g : {cycle_graph(64), hypercube(4)}) {
    const std::uint64_t budget = default_step_budget(g);
    for (const auto& name : ProcessRegistry::instance().names()) {
      // Herman's protocol is defined only on cycles.
      if (name == "herman" && !g.is_regular(2)) continue;
      // PCF processes walk an evolving graph that starts empty; at the
      // default alpha = 1 most components freeze before connecting, so
      // full cover is not guaranteed. Covered by dynamic_graph_test.
      if (name.rfind("pcf-", 0) == 0) continue;
      Rng rng(1000 + g.num_vertices());
      auto walk = ProcessRegistry::instance().create(name, g, ParamMap{}, rng);
      ASSERT_NE(walk, nullptr) << name;
      EXPECT_EQ(walk->steps(), 0u) << name;
      EXPECT_TRUE(run_until_vertex_cover(*walk, rng, budget))
          << name << " failed to cover n=" << g.num_vertices();
      EXPECT_TRUE(walk->cover().all_vertices_covered()) << name;
      EXPECT_EQ(&walk->graph(), &g) << name;
    }
  }
}

TEST(ProcessRegistry, DeclaredKindMatchesConstruction) {
  // execute_run resolves the run target from the declared kind, so every
  // declaration must match what its factory builds.
  const Graph g = cycle_graph(33);
  for (const ProcessEntry& e : ProcessRegistry::instance().entries()) {
    Rng rng(5);
    const auto walk = ProcessRegistry::instance().create(e.name, g, ParamMap{}, rng);
    EXPECT_EQ(dynamic_cast<const TokenProcess*>(walk.get()) != nullptr,
              e.kind == ProcessKind::kToken)
        << e.name;
  }
}

TEST(ProcessRegistry, SchemaRangesAreCheckedAtConstruction) {
  const Graph g = cycle_graph(16);
  Rng rng(1);
  EXPECT_THROW(ProcessRegistry::instance().create(
                   "multi-eprocess", g, ParamMap{{"walkers", "0"}}, rng),
               std::invalid_argument);
  EXPECT_THROW(ProcessRegistry::instance().create(
                   "pcf-srw", g, ParamMap{{"alpha", "0"}}, rng),
               std::invalid_argument);
  EXPECT_THROW(ProcessRegistry::instance().create(
                   "pcf-srw", g, ParamMap{{"dt", "-1"}}, rng),
               std::invalid_argument);
  // Graph-dependent checks stay in the factory.
  EXPECT_THROW(ProcessRegistry::instance().create(
                   "srw", g, ParamMap{{"start", "16"}}, rng),
               std::invalid_argument);
  // Keys another entry declares pass through untouched.
  EXPECT_NO_THROW(ProcessRegistry::instance().create(
      "srw", g, ParamMap{{"tokens", "not-a-number"}}, rng));
}

TEST(ProcessRegistry, RegistryEProcessMatchesDirectConstructionSeedForSeed) {
  Rng grng(21);
  const Graph g = random_regular_connected(150, 4, grng);

  Rng r1(99);
  auto via_registry = ProcessRegistry::instance().create("eprocess", g, ParamMap{}, r1);
  ASSERT_TRUE(run_until_vertex_cover(*via_registry, r1, 1u << 22));

  UniformRule rule;
  EProcess direct(g, 0, rule);
  Rng r2(99);
  ASSERT_TRUE(run_until_vertex_cover(direct, r2, 1u << 22));

  EXPECT_EQ(via_registry->steps(), direct.steps());
  EXPECT_EQ(via_registry->cover().vertex_cover_step(),
            direct.cover().vertex_cover_step());
}

TEST(ProcessRegistry, ParamsSelectRuleAndStart) {
  const Graph g = cycle_graph(32);
  Rng rng(3);
  auto walk = ProcessRegistry::instance().create(
      "eprocess", g, ParamMap{{"rule", "roundrobin"}, {"start", "5"}}, rng);
  EXPECT_EQ(walk->current(), 5u);
  auto* handle = dynamic_cast<EProcessHandle*>(walk.get());
  ASSERT_NE(handle, nullptr);
  EXPECT_STREQ(handle->rule().name(), "round-robin");
}

TEST(ProcessRegistry, UnknownNamesThrowWithKnownList) {
  const Graph g = cycle_graph(8);
  Rng rng(1);
  try {
    ProcessRegistry::instance().create("no-such-walk", g, ParamMap{}, rng);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& ex) {
    EXPECT_NE(std::string(ex.what()).find("eprocess"), std::string::npos);
  }
  EXPECT_THROW(make_rule("no-such-rule", g, rng), std::invalid_argument);
}

TEST(GeneratorRegistry, BuildsFamiliesByName) {
  Rng rng(17);
  const Graph cycle = GeneratorRegistry::instance().create(
      "cycle", ParamMap{{"n", "64"}}, rng);
  EXPECT_EQ(cycle.num_vertices(), 64u);
  EXPECT_TRUE(cycle.is_regular(2));

  const Graph cube = GeneratorRegistry::instance().create(
      "hypercube", ParamMap{{"r", "4"}}, rng);
  EXPECT_EQ(cube.num_vertices(), 16u);
  EXPECT_TRUE(cube.is_regular(4));

  const Graph reg = GeneratorRegistry::instance().create(
      "regular", ParamMap{{"n", "100"}, {"r", "4"}}, rng);
  EXPECT_TRUE(reg.is_regular(4));

  EXPECT_THROW(GeneratorRegistry::instance().create("no-such-family", ParamMap{}, rng),
               std::invalid_argument);
}

TEST(EngineBudget, DefaultBudgetIsGenerousAndMonotoneInSize)
{
  const Graph small = cycle_graph(64);
  const Graph big = cycle_graph(4096);
  EXPECT_GT(default_step_budget(small), 1000000u);
  EXPECT_GT(default_step_budget(big), default_step_budget(small));
}

}  // namespace
}  // namespace ewalk
