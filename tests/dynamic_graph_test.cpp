// Tests for the dynamic adjacency layer (src/graph/dynamic_graph.*,
// src/graph/pcf.*, src/walks/dynamic_walks.*, src/engine/pcf_process.*):
// insert/erase/freeze semantics, the epoch/journal contract, the
// static/dynamic equivalence after freeze(), PCF event-schedule
// bit-identity and advance-granularity invariance, and thread-count /
// work-stealing invariance of walks on evolving graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "engine/pcf_process.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "graph/pcf.hpp"
#include "serve/request.hpp"
#include "sweep/sweep.hpp"
#include "walks/dynamic_walks.hpp"
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

// Sorted multiset of v's current neighbours (self-loops appear twice), the
// representation-independent adjacency fingerprint shared by both backends.
template <class GraphT>
std::vector<Vertex> neighbor_multiset(const GraphT& g, Vertex v) {
  std::vector<Vertex> out;
  for (std::uint32_t k = 0; k < g.degree(v); ++k)
    out.push_back(g.slot(v, k).neighbor);
  std::sort(out.begin(), out.end());
  return out;
}

// Structural equality of a dynamic graph and a CSR built from the same
// surviving edge list: degrees and per-vertex neighbour multisets. Slot
// order is NOT compared — the dynamic side perturbs it by design.
void expect_same_adjacency(const DynamicGraph& dyn, const Graph& g) {
  ASSERT_EQ(dyn.num_vertices(), g.num_vertices());
  ASSERT_EQ(dyn.num_edges(), g.num_edges());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(dyn.degree(v), g.degree(v)) << "vertex " << v;
    EXPECT_EQ(neighbor_multiset(dyn, v), neighbor_multiset(g, v))
        << "vertex " << v;
  }
}

// ---- DynamicGraph semantics ------------------------------------------------

TEST(DynamicGraph, InsertEraseSemantics) {
  DynamicGraph g(4);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(0), 0u);

  const EdgeId e01 = g.insert_edge(0, 1);
  const EdgeId e12 = g.insert_edge(1, 2);
  const EdgeId e12b = g.insert_edge(1, 2);  // parallel edge: distinct id
  const EdgeId loop = g.insert_edge(3, 3);  // self-loop: degree +2
  EXPECT_EQ(e01, 0u);
  EXPECT_EQ(e12, 1u);
  EXPECT_EQ(e12b, 2u);
  EXPECT_EQ(loop, 3u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.edge_capacity(), 4u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 3u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_EQ(g.degree(3), 2u);
  EXPECT_EQ(g.slot(3, 0).neighbor, 3u);
  EXPECT_EQ(g.slot(3, 0).edge, loop);
  EXPECT_EQ(g.slot(3, 1).edge, loop);
  EXPECT_TRUE(g.edge_alive(e12));
  EXPECT_EQ(g.endpoints(e12b).u, 1u);
  EXPECT_EQ(g.endpoints(e12b).v, 2u);

  // Erase the FIRST of the two parallel edges: swap-with-last must keep the
  // survivor reachable from both endpoints.
  g.erase_edge(e12);
  EXPECT_FALSE(g.edge_alive(e12));
  EXPECT_TRUE(g.edge_alive(e12b));
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_EQ(g.slot(2, 0).edge, e12b);
  // Endpoints of a retired id remain queryable (the journal refers back).
  EXPECT_EQ(g.endpoints(e12).u, 1u);
  EXPECT_EQ(g.endpoints(e12).v, 2u);

  // Erase the self-loop: both slots of vertex 3 go away.
  g.erase_edge(loop);
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_EQ(g.num_edges(), 2u);

  // Ids are never reused: the next insert gets a fresh id.
  const EdgeId next = g.insert_edge(0, 2);
  EXPECT_EQ(next, 4u);
  EXPECT_EQ(g.edge_capacity(), 5u);
}

TEST(DynamicGraph, EpochAdvancesByOnePerMutationAndJournalMatches) {
  DynamicGraph g(3);
  EXPECT_EQ(g.epoch(), 0u);
  EXPECT_TRUE(g.journal().empty());

  const EdgeId a = g.insert_edge(0, 1);
  EXPECT_EQ(g.epoch(), 1u);
  const EdgeId b = g.insert_edge(1, 2);
  EXPECT_EQ(g.epoch(), 2u);
  g.erase_edge(a);
  EXPECT_EQ(g.epoch(), 3u);

  const auto& j = g.journal();
  ASSERT_EQ(j.size(), 3u);
  EXPECT_EQ(j[0].kind, MutationKind::kInsert);
  EXPECT_EQ(j[0].edge, a);
  EXPECT_EQ(j[0].endpoints.u, 0u);
  EXPECT_EQ(j[0].endpoints.v, 1u);
  EXPECT_EQ(j[1].kind, MutationKind::kInsert);
  EXPECT_EQ(j[1].edge, b);
  EXPECT_EQ(j[2].kind, MutationKind::kErase);
  EXPECT_EQ(j[2].edge, a);

  // freeze() and reads never advance the epoch.
  const Graph snap = g.freeze();
  (void)g.surviving_edges();
  (void)g.degree(1);
  EXPECT_EQ(g.epoch(), 3u);
  EXPECT_EQ(snap.num_edges(), 1u);
}

TEST(DynamicGraph, FromGraphSeedsEpochZeroBaseline) {
  Rng rng(7);
  const Graph base = random_regular_pairing_connected(40, 4, rng);
  const DynamicGraph dyn = DynamicGraph::from_graph(base);
  // Seed edges are the epoch-0 baseline: journal empty, epoch 0, readers
  // initialise from the adjacency directly.
  EXPECT_EQ(dyn.epoch(), 0u);
  EXPECT_TRUE(dyn.journal().empty());
  expect_same_adjacency(dyn, base);
  // Round trip: ids were seeded in edge-id order with no erasures, so
  // freeze() compaction is the identity on ids.
  const Graph back = dyn.freeze();
  ASSERT_EQ(back.num_edges(), base.num_edges());
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    EXPECT_EQ(back.endpoints(e).u, base.endpoints(e).u);
    EXPECT_EQ(back.endpoints(e).v, base.endpoints(e).v);
  }
}

TEST(DynamicGraphView, SharesShapeAndSyncSurfaceWithBackingGraph) {
  DynamicGraph g(5);
  g.insert_edge(0, 1);
  g.insert_edge(1, 2);
  DynamicGraphView view(g);
  EXPECT_EQ(view.num_vertices(), 5u);
  EXPECT_EQ(view.num_edges(), 2u);
  EXPECT_EQ(view.degree(1), 2u);
  EXPECT_EQ(view.slot(1, 0).neighbor, 0u);
  EXPECT_EQ(view.epoch(), 2u);
  EXPECT_EQ(view.journal().size(), 2u);
  // The view tracks mutations made after it was constructed.
  g.insert_edge(2, 3);
  EXPECT_EQ(view.num_edges(), 3u);
  EXPECT_EQ(view.epoch(), 3u);
  EXPECT_EQ(view.endpoints(2).v, 3u);
}

// ---- Property pass: randomized mutate-then-freeze --------------------------

TEST(DynamicGraphProperty, RandomChurnThenFreezeMatchesFromEdgesOfSurvivors) {
  // Shadow model: the surviving edge list as a map id -> endpoints. After an
  // arbitrary mutate sequence, freeze() must equal Graph::from_edges of the
  // shadow survivors — degrees, census flags, neighbour multisets — and a
  // fixed-seed walk must produce the identical trajectory on both CSRs.
  Rng rng(20260807);
  for (int round = 0; round < 8; ++round) {
    const Vertex n = 8 + static_cast<Vertex>(rng.uniform(40));
    DynamicGraph dyn(n);
    std::vector<std::optional<Endpoints>> shadow;  // indexed by edge id
    std::vector<EdgeId> alive;

    const int mutations = 200 + static_cast<int>(rng.uniform(200));
    for (int i = 0; i < mutations; ++i) {
      const bool erase = !alive.empty() && rng.uniform(3) == 0;
      if (erase) {
        const std::size_t pick = rng.uniform(alive.size());
        const EdgeId e = alive[pick];
        alive[pick] = alive.back();
        alive.pop_back();
        dyn.erase_edge(e);
        shadow[e].reset();
      } else {
        const Vertex u = static_cast<Vertex>(rng.uniform(n));
        // Bias towards occasional self-loops and parallel edges.
        const Vertex v = rng.uniform(10) == 0
                             ? u
                             : static_cast<Vertex>(rng.uniform(n));
        const EdgeId e = dyn.insert_edge(u, v);
        ASSERT_EQ(e, shadow.size());
        shadow.push_back(Endpoints{u, v});
        alive.push_back(e);
      }
    }

    std::vector<Endpoints> survivors;
    for (const auto& ep : shadow)
      if (ep) survivors.push_back(*ep);
    ASSERT_EQ(dyn.surviving_edges().size(), survivors.size());
    ASSERT_EQ(dyn.num_edges(), survivors.size());

    const Graph frozen = dyn.freeze();
    const Graph rebuilt = Graph::from_edges(n, survivors);
    expect_same_adjacency(dyn, rebuilt);
    ASSERT_EQ(frozen.num_edges(), rebuilt.num_edges());
    EXPECT_EQ(frozen.min_degree(), rebuilt.min_degree());
    EXPECT_EQ(frozen.max_degree(), rebuilt.max_degree());
    EXPECT_EQ(frozen.has_self_loops(), rebuilt.has_self_loops());
    EXPECT_EQ(frozen.has_parallel_edges(), rebuilt.has_parallel_edges());
    EXPECT_EQ(frozen.all_degrees_even(), rebuilt.all_degrees_even());
    for (EdgeId e = 0; e < frozen.num_edges(); ++e) {
      EXPECT_EQ(frozen.endpoints(e).u, rebuilt.endpoints(e).u);
      EXPECT_EQ(frozen.endpoints(e).v, rebuilt.endpoints(e).v);
    }
    for (Vertex v = 0; v < n; ++v)
      ASSERT_EQ(neighbor_multiset(frozen, v), neighbor_multiset(rebuilt, v))
          << "vertex " << v;

    // Golden-hash-style trajectory equality: identical CSRs drive identical
    // walks draw for draw.
    if (frozen.num_edges() == 0) continue;
    Vertex start = 0;
    while (frozen.degree(start) == 0) ++start;
    SimpleRandomWalk on_frozen(frozen, start);
    SimpleRandomWalk on_rebuilt(rebuilt, start);
    Rng ra(round + 1), rb(round + 1);
    for (int s = 0; s < 500; ++s) {
      on_frozen.step(ra);
      on_rebuilt.step(rb);
      ASSERT_EQ(on_frozen.current(), on_rebuilt.current()) << "step " << s;
    }
  }
}

// ---- Dynamic walks ---------------------------------------------------------

TEST(DynamicWalks, SrwHoldsAtIsolatedVertexWithoutConsumingRng) {
  DynamicGraph g(3);
  DynamicGraphView view(g);
  DynamicSrw walk(view, 0);
  Rng rng(5);
  const Rng untouched = rng;  // holds must not consume draws
  for (int i = 0; i < 10; ++i) walk.step(rng);
  EXPECT_EQ(walk.current(), 0u);
  EXPECT_EQ(walk.steps(), 10u);
  EXPECT_EQ(walk.holds(), 10u);
  EXPECT_EQ(rng(), Rng(untouched)());

  // An arriving edge un-strands the walker: on a single edge the next step
  // must cross it.
  g.insert_edge(0, 1);
  walk.step(rng);
  EXPECT_EQ(walk.current(), 1u);
  EXPECT_EQ(walk.holds(), 10u);
  EXPECT_EQ(walk.cover().vertices_covered(), 2u);
}

TEST(DynamicWalks, EProcessPrefersBlueAndSyncsArrivingEdges) {
  // Path 0-1-2 grown edge by edge: the E-process must take each freshly
  // arrived (blue) edge, never falling back to red while blue edges remain.
  DynamicGraph g(4);
  DynamicGraphView view(g);
  DynamicEProcess walk(view, 0);
  Rng rng(11);
  EXPECT_EQ(walk.blue_degree(0), 0u);

  const EdgeId e01 = g.insert_edge(0, 1);
  EXPECT_EQ(walk.blue_degree(0), 1u);
  walk.step(rng);
  EXPECT_EQ(walk.current(), 1u);
  EXPECT_EQ(walk.blue_steps(), 1u);
  EXPECT_TRUE(walk.edge_visited(e01));
  EXPECT_EQ(walk.blue_degree(0), 0u);
  EXPECT_EQ(walk.blue_degree(1), 0u);

  const EdgeId e12 = g.insert_edge(1, 2);
  EXPECT_EQ(walk.blue_degree(1), 1u);
  walk.step(rng);
  EXPECT_EQ(walk.current(), 2u);
  EXPECT_EQ(walk.blue_steps(), 2u);
  EXPECT_TRUE(walk.edge_visited(e12));

  // All incident edges visited: the next step is a red (SRW) fallback.
  walk.step(rng);
  EXPECT_EQ(walk.red_steps(), 1u);
  EXPECT_EQ(walk.current(), 1u);
}

TEST(DynamicWalks, EProcessErasedBlueEdgeLeavesCounts) {
  DynamicGraph g(3);
  DynamicGraphView view(g);
  DynamicEProcess walk(view, 0);
  const EdgeId e01 = g.insert_edge(0, 1);
  const EdgeId e02 = g.insert_edge(0, 2);
  EXPECT_EQ(walk.blue_degree(0), 2u);
  g.erase_edge(e01);  // blue edge vanishes before being crossed
  EXPECT_EQ(walk.blue_degree(0), 1u);
  EXPECT_EQ(walk.blue_degree(1), 0u);
  Rng rng(3);
  walk.step(rng);  // the only blue slot left is e02
  EXPECT_EQ(walk.current(), 2u);
  EXPECT_TRUE(walk.edge_visited(e02));
  EXPECT_FALSE(walk.edge_visited(e01));
  // Erasing an already-visited edge must not underflow blue counts.
  g.erase_edge(e02);
  EXPECT_EQ(walk.blue_degree(0), 0u);
  EXPECT_EQ(walk.blue_degree(2), 0u);
}

TEST(DynamicWalks, TrajectoryIsPureFunctionOfSeedAndMutationSequence) {
  // Two interleaved runs with the identical mutation schedule and seed must
  // agree step for step — the determinism contract the sweep layer builds on.
  const auto run = [](std::uint64_t seed) {
    Rng gen(99);
    const Graph base = random_regular_pairing_connected(60, 4, gen);
    DynamicGraph dyn(60);
    PcfSchedule schedule(base, /*alpha=*/0.01, gen);
    DynamicGraphView view(dyn);
    DynamicEProcess walk(view, 0);
    Rng rng(seed);
    std::vector<Vertex> trajectory;
    double t = 0.0;
    for (int s = 0; s < 2000; ++s) {
      t += 1.0 / 60.0;
      schedule.advance_to(t, dyn);
      walk.step(rng);
      trajectory.push_back(walk.current());
    }
    return trajectory;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

// ---- PCF schedule ----------------------------------------------------------

TEST(PcfSchedule, PlayoutIsBitIdenticalForEqualSeeds) {
  Rng gen(4);
  const Graph base = random_regular_pairing_connected(100, 4, gen);

  const auto play = [&base] {
    Rng rng(77);
    DynamicGraph dyn(base.num_vertices());
    PcfSchedule schedule(base, /*alpha=*/0.05, rng);
    schedule.run_to_completion(dyn);
    return std::make_tuple(schedule.opened(), schedule.blocked(),
                           dyn.journal().size());
  };
  const auto first = play();
  const auto second = play();
  EXPECT_EQ(first, second);
  // Every base edge is either opened or blocked by the end.
  EXPECT_EQ(std::get<0>(first) + std::get<1>(first), base.num_edges());
}

TEST(PcfSchedule, AdvanceGranularityDoesNotChangeThePlayout) {
  // advance_to(t1); advance_to(t2) must apply exactly the mutations
  // advance_to(t2) alone would — the property that makes the walker's
  // dt choice and the thread schedule irrelevant to the environment.
  Rng gen(4);
  const Graph base = random_regular_pairing_connected(80, 4, gen);

  DynamicGraph fine_dyn(80), coarse_dyn(80);
  Rng r1(123), r2(123);
  PcfSchedule fine(base, /*alpha=*/0.02, r1);
  PcfSchedule coarse(base, /*alpha=*/0.02, r2);

  for (double t = 0.0; t < 50.0; t += 0.01) fine.advance_to(t, fine_dyn);
  fine.run_to_completion(fine_dyn);
  coarse.run_to_completion(coarse_dyn);

  EXPECT_EQ(fine.opened(), coarse.opened());
  EXPECT_EQ(fine.blocked(), coarse.blocked());
  ASSERT_EQ(fine_dyn.journal().size(), coarse_dyn.journal().size());
  for (std::size_t i = 0; i < fine_dyn.journal().size(); ++i) {
    EXPECT_EQ(fine_dyn.journal()[i].edge, coarse_dyn.journal()[i].edge) << i;
    EXPECT_EQ(fine_dyn.journal()[i].endpoints.u,
              coarse_dyn.journal()[i].endpoints.u)
        << i;
  }
  expect_same_adjacency(fine_dyn, coarse_dyn.freeze());
}

TEST(PcfSchedule, EventTimesAreProcessedInOrderAndExhaust) {
  Rng gen(9);
  const Graph base = random_regular_pairing_connected(50, 4, gen);
  Rng rng(5);
  DynamicGraph dyn(50);
  PcfSchedule schedule(base, /*alpha=*/0.1, rng);
  double last = 0.0;
  while (!schedule.exhausted()) {
    const double next = schedule.next_event_time();
    EXPECT_GE(next, last);
    last = next;
    schedule.advance_to(next, dyn);
  }
  EXPECT_EQ(schedule.next_event_time(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(schedule.opened() + schedule.blocked(), base.num_edges());
  EXPECT_EQ(dyn.num_edges(), schedule.opened());
}

TEST(PcfSchedule, AlphaZeroLimitOpensEverythingAndLargeAlphaBlocks) {
  Rng gen(14);
  const Graph base = random_regular_pairing_connected(60, 4, gen);
  // Tiny alpha: freeze clocks ring long after every edge opens.
  Rng r1(1);
  DynamicGraph open_dyn(60);
  PcfSchedule open_all(base, /*alpha=*/1e-12, r1);
  open_all.run_to_completion(open_dyn);
  EXPECT_EQ(open_all.opened(), base.num_edges());
  EXPECT_EQ(open_all.blocked(), 0u);
  expect_same_adjacency(open_dyn, base);
  // Huge alpha: everything freezes essentially immediately.
  Rng r2(1);
  DynamicGraph frozen_dyn(60);
  PcfSchedule freeze_all(base, /*alpha=*/1e12, r2);
  freeze_all.run_to_completion(frozen_dyn);
  EXPECT_EQ(freeze_all.opened(), 0u);
  EXPECT_EQ(freeze_all.blocked(), base.num_edges());
}

// ---- Thread / stealing invariance of the dynamic path ----------------------

// One PCF process factory per walk type, splitting the schedule stream off
// the trial's walk stream exactly as the registry entries and the bench do.
template <class WalkT>
ProcessFactory pcf_factory(double alpha) {
  return [alpha](const Graph& g, Rng& rng) -> std::unique_ptr<WalkProcess> {
    Rng schedule_rng = rng.split();
    const double dt = 1.0 / static_cast<double>(g.num_vertices());
    return std::make_unique<PcfProcess<WalkT>>(g, /*start=*/0, alpha, dt,
                                               schedule_rng);
  };
}

std::vector<SweepPoint> pcf_points() {
  std::vector<SweepPoint> points;
  for (const Vertex n : {60, 120}) {
    SweepPoint point;
    point.label = std::string("n").append(std::to_string(n));
    point.params = {{"n", static_cast<double>(n)}, {"alpha", 0.001}};
    point.graph = [n](Rng& rng) {
      return random_regular_pairing_connected(n, 4, rng);
    };
    point.series = {
        SweepSeriesSpec{"pcf-srw", pcf_factory<DynamicSrw>(0.001),
                        CoverTarget::kVertices},
        SweepSeriesSpec{"pcf-eprocess", pcf_factory<DynamicEProcess>(0.001),
                        CoverTarget::kVertices}};
    point.max_steps = 200000;  // censor stranded trials, keep the test fast
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

TEST(DynamicSweep, SamplesInvariantAcrossThreadCountsAndStealingRuns) {
  // The dynamic backend inherits the sweep determinism contract: samples are
  // a pure function of (master_seed, point, trial) — identical across
  // --threads 1 / 4 / hardware and across repeated 4-thread runs on the
  // forced 4-worker executor, where work stealing reorders execution.
  SweepConfig config;
  config.trials = 3;
  config.master_seed = 2026;

  config.threads = 1;
  const auto serial = all_samples(run_sweep("t", pcf_points(), config));
  config.threads = 4;
  const auto four = all_samples(run_sweep("t", pcf_points(), config));
  const auto again = all_samples(run_sweep("t", pcf_points(), config));
  config.threads = 0;  // hardware concurrency
  const auto hardware = all_samples(run_sweep("t", pcf_points(), config));

  EXPECT_EQ(serial, four);
  EXPECT_EQ(four, again);
  EXPECT_EQ(serial, hardware);
  ASSERT_EQ(serial.size(), 4u);  // 2 points x 2 series
  for (const auto& samples : serial) {
    ASSERT_EQ(samples.size(), 3u);
    for (const double v : samples) EXPECT_GT(v, 0.0);
  }
}

TEST(DynamicSweep, CoalescingTokensMergeOnTheEvolvingGraph) {
  Rng gen(31);
  const Graph base = random_regular_pairing_connected(50, 4, gen);
  Rng schedule_rng(8);
  PcfCoalescingSrw proc(base, /*starts=*/{0, 10, 20, 30}, /*alpha=*/1e-6,
                        /*time_per_step=*/0.02, schedule_rng);
  Rng rng(17);
  // At alpha ~ 0 every edge eventually opens, the graph connects, and all
  // tokens must coalesce into one.
  std::uint64_t guard = 0;
  while (proc.tokens_remaining() > 1 && guard < 2000000) {
    proc.step(rng);
    ++guard;
  }
  EXPECT_EQ(proc.tokens_remaining(), 1u);
}

TEST(DynamicSweep, StrandedCoalescingTrialsEndWhenTheScheduleRunsOut) {
  // At the default alpha = 1 the PCF schedule freezes the graph into many
  // components, so the 8 tokens end up in several of them and can never
  // all meet. Each trial ends as unfinished and unreachable once the
  // schedule is exhausted (PCF time about ln m, a few n steps) and no two
  // tokens share a component, not at the 14.2M-step budget. The samples
  // are the budget, as a walk to the budget would give.
  const RunRequest req = run_request_from_params(ParamMap{
      {"graph", "regular"}, {"n", "2000"}, {"r", "4"}, {"seed", "3"},
      {"process", "pcf-coalescing-srw"}, {"tokens", "8"}, {"trials", "4"}});
  const RunResult result = execute_run(req, nullptr);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.unfinished, 4u);
  EXPECT_EQ(result.unreachable, 4u);
  for (std::size_t t = 0; t < result.samples.size(); ++t) {
    EXPECT_EQ(result.samples[t], static_cast<double>(result.budget)) << "trial " << t;
    EXPECT_LT(result.step_samples[t], 100000.0) << "trial " << t;
  }
}

}  // namespace
}  // namespace ewalk
