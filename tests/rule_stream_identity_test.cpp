// Rule stream-identity suite for the index-based choice API.
//
// The choice-rule API moved from span-consuming choose(view, at, candidates,
// rng) to index-based choose_index(view, at, blue_count, rng) with O(1) lazy
// candidate access through the view. The redesign is required to be
// choice-for-choice invisible: for every rule, the index-based
// implementation must reproduce exactly the choices (and rng draws) the
// recorded span path made.
//
// This suite pins that down by re-implementing each registry rule as a
// *legacy twin* that overrides only a span-consuming choose() — i.e. the
// rule exactly as it was written before the migration — and driving two
// identically seeded walks: one with the shipped index-based rule, one with
// the twin. The removed base-class span adapter lives on here as a
// test-local shim (SpanRuleShim below): it materialises the candidates via
// view.blue_slot() exactly as the deprecated adapter did, so the twins
// still exercise the byte-for-byte pre-migration rule bodies against the
// shipped rules. Positions, colours, blue/red counts, and the rng stream
// must coincide step for step on:
//   * the cycle (every blue step has <= 2 candidates),
//   * the complete graph K_1000 (dense: the span the old path copied was
//     ~10^3 slots — exactly where the lazy path pays off),
//   * a self-loop/parallel-edge multigraph (eviction-order subtleties).
// MultiEProcess and CoalescingEWalk are covered through the same chooser,
// and with one walker they must replay EProcess step for step; a one-token
// CoalescingRW must replay SimpleRandomWalk.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "interact/coalescing.hpp"
#include "interact/token_system.hpp"
#include "util/rng.hpp"
#include "walks/eprocess.hpp"
#include "walks/multi_eprocess.hpp"
#include "walks/rules.hpp"
#include "walks/srw.hpp"

namespace ewalk {
namespace {

// ---- Legacy twins ----------------------------------------------------------
//
// SpanRuleShim replays the removed span-rule API: choose_index()
// materialises the blue candidates into a scratch vector (the old span
// path's copy, in blue_slot() enumeration order — the order the old
// fill_candidates() produced) and delegates to a span-consuming choose().
// Each twin overrides ONLY choose(), byte-for-byte the rule bodies as they
// existed before the index migration, so the suite still proves the
// index-based dispatch reproduces the historical span dispatch even though
// the production adapter is gone.

class SpanRuleShim : public UnvisitedEdgeRule {
 public:
  std::uint32_t choose_index(const EProcessView& view, Vertex at,
                             std::uint32_t blue_count, Rng& rng) final {
    scratch_.resize(blue_count);
    for (std::uint32_t i = 0; i < blue_count; ++i)
      scratch_[i] = view.blue_slot(at, i);
    return choose(view, at, scratch_, rng);
  }

  /// The pre-migration entry point the twins implement.
  virtual std::uint32_t choose(const EProcessView& view, Vertex at,
                               std::span<const Slot> candidates, Rng& rng) = 0;

 private:
  std::vector<Slot> scratch_;
};

class LegacyUniform final : public SpanRuleShim {
 public:
  std::uint32_t choose(const EProcessView&, Vertex,
                       std::span<const Slot> candidates, Rng& rng) override {
    return static_cast<std::uint32_t>(rng.uniform(candidates.size()));
  }
  // Deliberately NOT uniform_over_candidates(): forces the span path, so the
  // comparison also re-proves fast path == span path.
};

class LegacyFirst final : public SpanRuleShim {
 public:
  std::uint32_t choose(const EProcessView&, Vertex, std::span<const Slot>,
                       Rng&) override {
    return 0;
  }
};

class LegacyLast final : public SpanRuleShim {
 public:
  std::uint32_t choose(const EProcessView&, Vertex,
                       std::span<const Slot> candidates, Rng&) override {
    return static_cast<std::uint32_t>(candidates.size() - 1);
  }
};

class LegacyRoundRobin final : public SpanRuleShim {
 public:
  explicit LegacyRoundRobin(Vertex n) : next_(n, 0) {}
  std::uint32_t choose(const EProcessView&, Vertex at,
                       std::span<const Slot> candidates, Rng&) override {
    const std::uint32_t idx =
        next_[at] % static_cast<std::uint32_t>(candidates.size());
    next_[at] = idx + 1;
    return idx;
  }

 private:
  std::vector<std::uint32_t> next_;
};

class LegacyAdversary final : public SpanRuleShim {
 public:
  std::uint32_t choose(const EProcessView& view, Vertex,
                       std::span<const Slot> candidates, Rng&) override {
    std::uint32_t best = 0;
    std::uint32_t best_count = view.cover().visit_count(candidates[0].neighbor);
    for (std::uint32_t i = 1; i < candidates.size(); ++i) {
      const std::uint32_t c = view.cover().visit_count(candidates[i].neighbor);
      if (c > best_count) {
        best = i;
        best_count = c;
      }
    }
    return best;
  }
};

class LegacyGreedy final : public SpanRuleShim {
 public:
  std::uint32_t choose(const EProcessView& view, Vertex,
                       std::span<const Slot> candidates, Rng& rng) override {
    std::uint32_t unvisited_seen = 0;
    std::uint32_t pick = 0;
    for (std::uint32_t i = 0; i < candidates.size(); ++i) {
      if (!view.cover().vertex_visited(candidates[i].neighbor)) {
        ++unvisited_seen;
        if (rng.uniform(unvisited_seen) == 0) pick = i;
      }
    }
    if (unvisited_seen > 0) return pick;
    return static_cast<std::uint32_t>(rng.uniform(candidates.size()));
  }
};

class LegacyPriority final : public SpanRuleShim {
 public:
  explicit LegacyPriority(std::vector<EdgeId> priority)
      : priority_(std::move(priority)) {}
  std::uint32_t choose(const EProcessView&, Vertex,
                       std::span<const Slot> candidates, Rng&) override {
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < candidates.size(); ++i)
      if (priority_[candidates[i].edge] < priority_[candidates[best].edge])
        best = i;
    return best;
  }

 private:
  std::vector<EdgeId> priority_;
};

/// The priority permutation FixedPriorityRule(num_edges, rng) draws,
/// replayed so the twin sees the identical schedule.
std::vector<EdgeId> priority_permutation(EdgeId num_edges, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<EdgeId> priority(num_edges);
  for (EdgeId e = 0; e < num_edges; ++e) priority[e] = e;
  rng.shuffle(std::span<EdgeId>(priority));
  return priority;
}

/// Builds the shipped index-based rule and its legacy span twin, guaranteed
/// to encode the same choice function (incl. the priority permutation).
struct RulePair {
  std::unique_ptr<UnvisitedEdgeRule> current;
  std::unique_ptr<UnvisitedEdgeRule> legacy;
};

RulePair make_pair_for(const std::string& name, const Graph& g) {
  constexpr std::uint64_t kPrioritySeed = 905;
  if (name == "uniform")
    return {std::make_unique<UniformRule>(), std::make_unique<LegacyUniform>()};
  if (name == "first")
    return {std::make_unique<FirstSlotRule>(), std::make_unique<LegacyFirst>()};
  if (name == "last")
    return {std::make_unique<LastSlotRule>(), std::make_unique<LegacyLast>()};
  if (name == "roundrobin")
    return {std::make_unique<RoundRobinRule>(g.num_vertices()),
            std::make_unique<LegacyRoundRobin>(g.num_vertices())};
  if (name == "adversary")
    return {std::make_unique<PreferVisitedEndpointRule>(),
            std::make_unique<LegacyAdversary>()};
  if (name == "greedy")
    return {std::make_unique<PreferUnvisitedEndpointRule>(),
            std::make_unique<LegacyGreedy>()};
  if (name == "priority") {
    Rng rule_rng(kPrioritySeed);
    return {std::make_unique<FixedPriorityRule>(g.num_edges(), rule_rng),
            std::make_unique<LegacyPriority>(
                priority_permutation(g.num_edges(), kPrioritySeed))};
  }
  throw std::invalid_argument("no twin for rule: " + name);
}

// ---- Graphs ----------------------------------------------------------------

enum class GraphKind { kCycle, kCompleteK1000, kMessyMultigraph };

// Mirrors perf_regression_test's messy_multigraph: self-loops, parallel
// edges, chords — where candidate-enumeration order subtleties live.
Graph make_graph(GraphKind kind) {
  switch (kind) {
    case GraphKind::kCycle:
      return cycle_graph(300);
    case GraphKind::kCompleteK1000:
      return complete_graph(1000);
    case GraphKind::kMessyMultigraph: {
      const Vertex n = 60;
      GraphBuilder b(n);
      for (Vertex v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
      for (Vertex v = 0; v < n; v += 5) b.add_edge(v, (v + 1) % n);
      for (Vertex v = 0; v < n; v += 7) b.add_edge(v, v);
      for (Vertex v = 0; v < n; v += 3) b.add_edge(v, (v + 13) % n);
      return b.build();
    }
  }
  throw std::logic_error("unreachable");
}

const char* graph_label(GraphKind kind) {
  switch (kind) {
    case GraphKind::kCycle: return "cycle";
    case GraphKind::kCompleteK1000: return "K1000";
    case GraphKind::kMessyMultigraph: return "multigraph";
  }
  return "?";
}

std::uint64_t steps_for(GraphKind kind) {
  // Enough steps that K_1000 stays deep in its blue phase (every step hits
  // the rule) while cycle/multigraph run past full cover into red territory.
  return kind == GraphKind::kCompleteK1000 ? 20000 : 5000;
}

// ---- The identity checks ---------------------------------------------------

using Param = std::tuple<std::string, GraphKind>;

class RuleStreamIdentity : public ::testing::TestWithParam<Param> {};

TEST_P(RuleStreamIdentity, IndexPathMatchesRecordedSpanPath) {
  const auto& [rule_name, graph_kind] = GetParam();
  const Graph g = make_graph(graph_kind);
  auto pair = make_pair_for(rule_name, g);

  Rng rng_new(7777), rng_old(7777);
  EProcess walk_new(g, 0, *pair.current);
  EProcess walk_old(g, 0, *pair.legacy);

  const std::uint64_t steps = steps_for(graph_kind);
  for (std::uint64_t i = 0; i < steps; ++i) {
    const StepColor c_new = walk_new.step(rng_new);
    const StepColor c_old = walk_old.step(rng_old);
    ASSERT_EQ(c_new, c_old) << "colour diverged at step " << i;
    ASSERT_EQ(walk_new.current(), walk_old.current())
        << "position diverged at step " << i;
  }
  EXPECT_EQ(walk_new.blue_steps(), walk_old.blue_steps());
  EXPECT_EQ(walk_new.red_steps(), walk_old.red_steps());
  EXPECT_EQ(walk_new.cover().edges_covered(), walk_old.cover().edges_covered());
  EXPECT_EQ(rng_new(), rng_old());  // streams advanced identically
}

// MultiEProcess and CoalescingEWalk step through the same transition core
// as EProcess (step_core.hpp + StaticBlueIndex), so with one walker or
// token each must replay EProcess exactly: positions, blue steps and the
// rng stream.
TEST_P(RuleStreamIdentity, SingleWalkerProcessesMatchEProcess) {
  const auto& [rule_name, graph_kind] = GetParam();
  const Graph g = make_graph(graph_kind);
  const auto rule = make_pair_for(rule_name, g).current;
  Rng rng_single(4242), rng_multi(4242), rng_token(4242);
  EProcess single(g, 0, *rule);
  MultiEProcess multi(g, {0}, make_pair_for(rule_name, g).current);
  CoalescingEWalk token(g, {0}, make_pair_for(rule_name, g).current);
  for (int i = 0; i < 4000; ++i) {
    single.step(rng_single);
    multi.step(rng_multi);
    token.step(rng_token);
    ASSERT_EQ(multi.current(), single.current()) << "step " << i;
    ASSERT_EQ(token.current(), single.current()) << "step " << i;
  }
  EXPECT_EQ(multi.blue_steps(), single.blue_steps());
  EXPECT_EQ(token.blue_steps(), single.blue_steps());
  const std::uint64_t next = rng_single();
  EXPECT_EQ(rng_multi(), next);
  EXPECT_EQ(rng_token(), next);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistryRules, RuleStreamIdentity,
    ::testing::Combine(::testing::ValuesIn(rule_names()),
                       ::testing::Values(GraphKind::kCycle,
                                         GraphKind::kCompleteK1000,
                                         GraphKind::kMessyMultigraph)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::get<0>(info.param) + "_" +
             graph_label(std::get<1>(info.param));
    });

// The shared chooser is also what MultiEProcess and CoalescingEWalk call;
// drive both through a non-uniform rule to cover those call sites.

TEST(RuleStreamIdentityMulti, MultiEProcessIndexPathMatchesSpanPath) {
  const Graph g = make_graph(GraphKind::kMessyMultigraph);
  Rng rng_new(31), rng_old(31);
  MultiEProcess walk_new(g, {0, 20, 40},
                         std::make_unique<RoundRobinRule>(g.num_vertices()));
  MultiEProcess walk_old(g, {0, 20, 40},
                         std::make_unique<LegacyRoundRobin>(g.num_vertices()));
  for (int i = 0; i < 4000; ++i) {
    walk_new.step(rng_new);
    walk_old.step(rng_old);
    for (std::uint32_t w = 0; w < walk_new.num_walkers(); ++w)
      ASSERT_EQ(walk_new.position(w), walk_old.position(w)) << "step " << i;
  }
  EXPECT_EQ(walk_new.blue_steps(), walk_old.blue_steps());
  EXPECT_EQ(rng_new(), rng_old());
}

TEST(RuleStreamIdentityMulti, CoalescingEWalkIndexPathMatchesSpanPath) {
  const Graph g = make_graph(GraphKind::kMessyMultigraph);
  Rng rng_new(53), rng_old(53);
  CoalescingEWalk walk_new(g, spread_token_starts(g.num_vertices(), 6, 0),
                           std::make_unique<PreferVisitedEndpointRule>());
  CoalescingEWalk walk_old(g, spread_token_starts(g.num_vertices(), 6, 0),
                           std::make_unique<LegacyAdversary>());
  for (int i = 0; i < 4000; ++i) {
    walk_new.step(rng_new);
    walk_old.step(rng_old);
    ASSERT_EQ(walk_new.current(), walk_old.current()) << "step " << i;
    ASSERT_EQ(walk_new.tokens_remaining(), walk_old.tokens_remaining());
  }
  EXPECT_EQ(walk_new.blue_steps(), walk_old.blue_steps());
  EXPECT_EQ(walk_new.first_meeting_step(), walk_old.first_meeting_step());
  EXPECT_EQ(rng_new(), rng_old());
}

// CoalescingRW steps through srw_transition like SimpleRandomWalk, so one
// token must replay the SRW: positions, covered edges and the rng stream.
TEST(RuleStreamIdentityMulti, OneTokenCoalescingRwMatchesSrw) {
  const Graph g = make_graph(GraphKind::kMessyMultigraph);
  Rng rng_srw(61), rng_token(61);
  SimpleRandomWalk srw(g, 0);
  CoalescingRW token(g, {0});
  for (int i = 0; i < 4000; ++i) {
    srw.step(rng_srw);
    token.step(rng_token);
    ASSERT_EQ(token.current(), srw.current()) << "step " << i;
  }
  EXPECT_EQ(token.cover().edges_covered(), srw.cover().edges_covered());
  EXPECT_EQ(rng_token(), rng_srw());
}

// (The pre-removal RuleContract tests — partition-less views throwing and
// the adapter's override-neither error — went away with the deprecated API:
// choose_index() is now pure virtual and every view carries a partition, so
// both misuses are compile errors instead of runtime throws.)

}  // namespace
}  // namespace ewalk
