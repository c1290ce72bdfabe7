// Tests for the baseline processes: rotor-router, RWC(d), the
// unvisited-vertex walk, and the locally fair strategies, plus the error
// paths all six single-walker classes share.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/driver.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "walks/choice.hpp"
#include "walks/locally_fair.hpp"
#include "walks/rotor.hpp"
#include "walks/srw.hpp"
#include "walks/vertex_process.hpp"
#include "walks/weighted.hpp"

namespace ewalk {
namespace {

// ---- Rotor-router -----------------------------------------------------------

TEST(Rotor, IsDeterministic) {
  const Graph g = torus_2d(5, 5);
  RotorRouter a(g, 0), b(g, 0);
  for (int i = 0; i < 1000; ++i) {
    a.step();
    b.step();
    ASSERT_EQ(a.current(), b.current());
  }
}

TEST(Rotor, CoversWithinMDBound) {
  // Yanovski et al.: rotor-router covers (vertices and edges) within O(mD).
  for (const Graph& g : {cycle_graph(30), torus_2d(6, 6), petersen_graph(),
                         lollipop(6, 6), binary_tree(5)}) {
    RotorRouter walk(g, 0);
    const std::uint64_t bound =
        4ull * g.num_edges() * (diameter(g) + 1) + 4 * g.num_edges() + 100;
    EXPECT_TRUE(run_until(walk, EdgesCovered{}, bound))
        << "m=" << g.num_edges();
    EXPECT_TRUE(walk.cover().all_vertices_covered());
  }
}

TEST(Rotor, EventuallyPeriodicWithPeriod2m) {
  // Once the rotor-router enters its Eulerian circulation, it traverses each
  // directed edge exactly once per 2m steps, so the position sequence is
  // periodic with period 2m.
  for (const Graph& g : {cycle_graph(12), torus_2d(4, 4), petersen_graph()}) {
    RotorRouter walk(g, 0);
    const std::uint64_t m = g.num_edges();
    const std::uint64_t stabilise = 4 * m * (diameter(g) + 2);
    for (std::uint64_t i = 0; i < stabilise; ++i) walk.step();
    std::vector<Vertex> window;
    for (std::uint64_t i = 0; i < 2 * m; ++i) {
      window.push_back(walk.current());
      walk.step();
    }
    for (std::uint64_t i = 0; i < 2 * m; ++i) {
      ASSERT_EQ(walk.current(), window[i]) << "offset " << i;
      walk.step();
    }
  }
}

// ---- Random walk with choice -----------------------------------------------

TEST(Rwc, CoversGraph) {
  Rng rng(1);
  const Graph g = torus_2d(8, 8);
  RandomWalkWithChoice walk(g, 0, 2);
  ASSERT_TRUE(run_until(walk, rng, VertexCovered{}, 1u << 24));
}

TEST(Rwc, DegenerateD1IsPlainWalk) {
  Rng rng(2);
  const Graph g = cycle_graph(20);
  RandomWalkWithChoice walk(g, 0, 1);
  ASSERT_TRUE(run_until(walk, rng, VertexCovered{}, 1u << 24));
}

TEST(Rwc, RejectsZeroChoices) {
  const Graph g = cycle_graph(4);
  EXPECT_THROW(RandomWalkWithChoice(g, 0, 0), std::invalid_argument);
}

TEST(Rwc, ChoiceReducesCoverTimeOnTorus) {
  // Avin–Krishnamachari report clear cover-time reductions for RWC(2) on
  // toroidal grids; check the trial means reflect that (generous margin).
  const Graph g = torus_2d(12, 12);
  const int kTrials = 12;
  double srw_total = 0, rwc_total = 0;
  for (int t = 0; t < kTrials; ++t) {
    Rng r1(100 + t), r2(200 + t);
    RandomWalkWithChoice plain(g, 0, 1), choice(g, 0, 2);
    EXPECT_TRUE(run_until(plain, r1, VertexCovered{}, 1u << 26));
    EXPECT_TRUE(run_until(choice, r2, VertexCovered{}, 1u << 26));
    srw_total += static_cast<double>(plain.cover().vertex_cover_step());
    rwc_total += static_cast<double>(choice.cover().vertex_cover_step());
  }
  EXPECT_LT(rwc_total, srw_total);
}

// ---- Unvisited-vertex walk ---------------------------------------------------

TEST(VertexWalk, CoversGraph) {
  Rng rng(3);
  const Graph g = random_regular_connected(100, 4, rng);
  UnvisitedVertexWalk walk(g, 0);
  ASSERT_TRUE(run_until(walk, rng, VertexCovered{}, 1u << 24));
}

TEST(VertexWalk, PrefersUnvisitedNeighbors) {
  // From the center of a star, the walk must visit all leaves in the first
  // 2(n-1) steps (every other step lands on a fresh leaf).
  const Graph g = star_graph(10);
  Rng rng(4);
  UnvisitedVertexWalk walk(g, 0);
  ASSERT_TRUE(run_until(walk, rng, VertexCovered{}, 2 * 9 + 1));
  EXPECT_LE(walk.cover().vertex_cover_step(), 2u * 9 - 1);
}

TEST(VertexWalk, FasterThanSrwOnRegularGraphs) {
  Rng grng(5);
  const Graph g = random_regular_connected(300, 4, grng);
  const int kTrials = 8;
  double vw = 0, srw = 0;
  for (int t = 0; t < kTrials; ++t) {
    Rng r1(300 + t), r2(400 + t);
    UnvisitedVertexWalk a(g, 0);
    RandomWalkWithChoice b(g, 0, 1);  // plain SRW semantics
    EXPECT_TRUE(run_until(a, r1, VertexCovered{}, 1u << 26));
    EXPECT_TRUE(run_until(b, r2, VertexCovered{}, 1u << 26));
    vw += static_cast<double>(a.cover().vertex_cover_step());
    srw += static_cast<double>(b.cover().vertex_cover_step());
  }
  EXPECT_LT(vw, srw);
}

// ---- Locally fair strategies -------------------------------------------------

TEST(LocallyFair, LeastUsedFirstCoversEdges) {
  for (const Graph& g : {cycle_graph(20), torus_2d(5, 5), petersen_graph(),
                         lollipop(5, 4)}) {
    LocallyFairWalk walk(g, 0, FairnessCriterion::kLeastUsedFirst);
    const std::uint64_t bound = 8ull * g.num_edges() * (diameter(g) + 2) + 100;
    EXPECT_TRUE(run_until(walk, EdgesCovered{}, bound));
  }
}

TEST(LocallyFair, LeastUsedFirstIsFairLongRun) {
  // [5]: Least-Used-First traverses all edges with the same frequency in the
  // long run. After many multiples of 2m steps the min/max traversal counts
  // should be within a factor ~2. The torus is simple, so each step's edge
  // is the one joining the walker's old and new vertex.
  const Graph g = torus_2d(5, 5);
  LocallyFairWalk walk(g, 0, FairnessCriterion::kLeastUsedFirst);
  const std::uint64_t m = g.num_edges();
  std::vector<std::uint64_t> tr(m, 0);
  for (std::uint64_t i = 0; i < 400 * m; ++i) {
    const Vertex from = walk.current();
    walk.step();
    for (const Slot& s : g.slots(from))
      if (s.neighbor == walk.current()) ++tr[s.edge];
  }
  const auto [lo, hi] = std::minmax_element(tr.begin(), tr.end());
  EXPECT_GT(*lo, 0u);
  EXPECT_LT(static_cast<double>(*hi) / static_cast<double>(*lo), 2.0);
}

TEST(LocallyFair, OldestFirstIsDeterministicAndCoversSmallGraphs) {
  const Graph g = cycle_graph(15);
  LocallyFairWalk a(g, 0, FairnessCriterion::kOldestFirst);
  LocallyFairWalk b(g, 0, FairnessCriterion::kOldestFirst);
  for (int i = 0; i < 500; ++i) {
    a.step();
    b.step();
    ASSERT_EQ(a.current(), b.current());
  }
  LocallyFairWalk c(g, 0, FairnessCriterion::kOldestFirst);
  EXPECT_TRUE(run_until(c, EdgesCovered{}, 100000));
}

// ---- Error paths shared by every single walker ------------------------------

struct SingleWalkCase {
  std::string name;  // the class name its errors start with
  std::function<std::unique_ptr<WalkProcess>(const Graph&, Vertex)> make;
};

void PrintTo(const SingleWalkCase& c, std::ostream* os) { *os << c.name; }

class SingleWalkErrors : public testing::TestWithParam<SingleWalkCase> {};

// Expects `f` to throw `Error` with a message starting "<name>: `what`".
template <typename Error, typename F>
void expect_error(F f, const std::string& name, const std::string& what) {
  try {
    f();
    ADD_FAILURE() << "no exception; expected " << name << ": " << what;
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), name + ": " + what);
  }
}

TEST_P(SingleWalkErrors, StartOutOfRangeThrowsInvalidArgument) {
  const Graph g = cycle_graph(4);
  expect_error<std::invalid_argument>([&] { GetParam().make(g, 4); },
                                      GetParam().name, "start vertex out of range");
}

TEST_P(SingleWalkErrors, StepAtIsolatedVertexThrowsLogicError) {
  // Vertex 0 has no edges; its CSR row is empty.
  GraphBuilder b(4);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const auto walk = GetParam().make(g, 0);
  Rng rng(1);
  expect_error<std::logic_error>([&] { walk->step(rng); }, GetParam().name,
                                 "stuck at isolated vertex");
  EXPECT_EQ(walk->current(), 0u);
  EXPECT_EQ(walk->cover().edges_covered(), 0u);
}

template <typename Walk, typename... Args>
SingleWalkCase single_walk_case(std::string name, Args... args) {
  return {std::move(name), [=](const Graph& g, Vertex start) {
            return std::make_unique<Walk>(g, start, args...);
          }};
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, SingleWalkErrors,
    testing::Values(
        single_walk_case<SimpleRandomWalk>("SimpleRandomWalk"),
        single_walk_case<RotorRouter>("RotorRouter"),
        single_walk_case<UnvisitedVertexWalk>("UnvisitedVertexWalk"),
        single_walk_case<RandomWalkWithChoice>("RandomWalkWithChoice", 2u),
        single_walk_case<LocallyFairWalk>("LocallyFairWalk",
                                          FairnessCriterion::kOldestFirst),
        SingleWalkCase{"WeightedRandomWalk",
                       [](const Graph& g, Vertex start) {
                         return std::make_unique<WeightedRandomWalk>(
                             g, start, std::vector<double>(g.num_edges(), 2.0));
                       }}),
    [](const testing::TestParamInfo<SingleWalkCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace ewalk
