// Stream-identity regression suite for the hot-path optimisations.
//
// The O(1) blue eviction (BluePartition::pos_of_slot_), run_until's check
// stride, and the persistent scheduler the trial loop (run_target_trials)
// runs on are all required to be *bit-for-bit* invisible: same RNG draws,
// same trajectories, same samples as the original per-step/per-scan/
// per-spawn implementations. This suite pins that down two ways:
//
//  1. Golden trajectory hashes. Every scenario below was run against the
//     pre-optimisation implementation (linear-scan evict, unbatched driver,
//     thread-per-call trial loop) and its FNV-1a trajectory hash recorded as
//     a constant. The optimised code must reproduce each hash exactly —
//     including on multigraphs with self-loops and parallel edges, where
//     eviction order subtleties live.
//
//  2. Internal consistency. Driving two identically seeded processes with
//     check stride 1 and 4096 must reach cover at the same step, and the
//     trial loop must return identical samples for 1, 2, and 8 threads.
//
// Compile with -DEWALK_GOLDEN_PRINT for a main() that prints the constants
// instead of asserting them (how the numbers below were produced).
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "covertime/experiment.hpp"
#include "engine/adapters.hpp"
#include "engine/driver.hpp"
#include "engine/pcf_process.hpp"
#include "engine/registry.hpp"
#include "engine/token_process.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "interact/coalescing.hpp"
#include "interact/herman.hpp"
#include "interact/token_system.hpp"
#include "sweep/sweep.hpp"
#include "util/rng.hpp"
#include "walks/eprocess.hpp"
#include "walks/multi_eprocess.hpp"
#include "walks/rules.hpp"
#include "walks/srw.hpp"
#include "walks/weighted.hpp"

#include "test_graphs.hpp"

namespace ewalk {
namespace {

// ---- Trajectory hashing ----------------------------------------------------

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

struct Hasher {
  std::uint64_t h = kFnvOffset;
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= kFnvPrime;
    }
  }
};

// ---- Scenarios -------------------------------------------------------------
//
// Each drives a process with a fixed seed and folds the full trajectory
// (positions, colours/populations, step counts) into one hash.

std::uint64_t eprocess_trajectory(const std::string& rule_name,
                                  std::uint64_t steps) {
  const Graph g = messy_multigraph();
  Rng rng(12345);
  auto rule = make_rule(rule_name, g, rng);
  EProcess walk(g, 0, *rule);
  Hasher h;
  for (std::uint64_t i = 0; i < steps; ++i) {
    const StepColor c = walk.step(rng);
    h.mix(walk.current());
    h.mix(c == StepColor::kBlue ? 1 : 0);
  }
  h.mix(walk.blue_steps());
  h.mix(walk.cover().edges_covered());
  return h.h;
}

std::uint64_t multi_eprocess_trajectory(std::uint64_t steps) {
  const Graph g = messy_multigraph();
  Rng rng(777);
  MultiEProcess walk(g, {0, 15, 30, 45}, make_rule("roundrobin", g, rng));
  Hasher h;
  for (std::uint64_t i = 0; i < steps; ++i) {
    walk.step(rng);
    for (std::uint32_t w = 0; w < walk.num_walkers(); ++w)
      h.mix(walk.position(w));
  }
  h.mix(walk.blue_steps());
  return h.h;
}

std::uint64_t coalescing_ewalk_trajectory(std::uint64_t steps) {
  const Graph g = messy_multigraph();
  Rng rng(424242);
  auto rule = make_rule("uniform", g, rng);
  CoalescingEWalk walk(g, spread_token_starts(g.num_vertices(), 8, 0),
                       std::move(rule));
  Hasher h;
  for (std::uint64_t i = 0; i < steps; ++i) {
    walk.step(rng);
    h.mix(walk.current());
    h.mix(walk.tokens_remaining());
  }
  h.mix(walk.blue_steps());
  h.mix(walk.first_meeting_step());
  return h.h;
}

// The four token processes, each from 8 spread tokens (Herman: 5 on a
// 61-cycle) for `steps` steps: per-step current() and tokens_remaining(),
// then the cover counts, the meeting and coalescence steps, steps(), PCF's
// holds() and the next rng draw. Pins the token bookkeeping they share.
std::uint64_t token_processes_trajectory(std::uint64_t steps) {
  const Graph g = messy_multigraph();
  const Graph ring = cycle_graph(61);
  Hasher h;
  const auto run = [&](TokenProcess& p, Rng& rng) {
    for (std::uint64_t i = 0; i < steps; ++i) {
      p.step(rng);
      h.mix(p.current());
      h.mix(p.tokens_remaining());
    }
    h.mix(p.initial_tokens());
    h.mix(p.cover().vertices_covered());
    h.mix(p.cover().edges_covered());
    h.mix(p.cover().vertex_cover_step());
    h.mix(p.first_meeting_step());
    h.mix(p.coalescence_step());
    h.mix(p.steps());
  };
  {
    Rng rng(2101);
    CoalescingRW p(g, spread_token_starts(g.num_vertices(), 8, 0));
    run(p, rng);
    h.mix(rng.next_u64());
  }
  {
    Rng rng(2102);
    auto rule = make_rule("roundrobin", g, rng);
    CoalescingEWalk p(g, spread_token_starts(g.num_vertices(), 8, 0),
                      std::move(rule));
    run(p, rng);
    h.mix(rng.next_u64());
  }
  {
    Rng rng(2103);
    HermanRing p(ring, spread_token_starts(ring.num_vertices(), 5, 0));
    run(p, rng);
    h.mix(rng.next_u64());
  }
  {
    Rng rng(2104);
    PcfCoalescingSrw p(g, spread_token_starts(g.num_vertices(), 8, 0),
                       /*alpha=*/0.5, /*time_per_step=*/1.0 / 60, rng);
    run(p, rng);
    h.mix(p.holds());
    h.mix(rng.next_u64());
  }
  return h.h;
}

std::uint64_t srw_trajectory(std::uint64_t steps) {
  const Graph g = messy_multigraph();
  Rng rng(99);
  SimpleRandomWalk walk(g, 0);
  Hasher h;
  for (std::uint64_t i = 0; i < steps; ++i) {
    walk.step(rng);
    h.mix(walk.current());
  }
  return h.h;
}

// The single-walker baselines besides plain SRW: six registry entries, then
// a weighted walk with non-unit weights, each for `steps` steps: per-step
// current(), then the vertex cover step, edges covered, steps() and the
// next rng draw. Pins the position, step and cover bookkeeping they share.
std::uint64_t single_walkers_trajectory(std::uint64_t steps) {
  const Graph g = messy_multigraph();
  Hasher h;
  const auto run = [&](WalkProcess& p, Rng& rng) {
    for (std::uint64_t i = 0; i < steps; ++i) {
      p.step(rng);
      h.mix(p.current());
    }
    h.mix(p.cover().vertex_cover_step());
    h.mix(p.cover().edges_covered());
    h.mix(p.steps());
    h.mix(rng.next_u64());
  };
  const std::pair<const char*, ParamMap> entries[] = {
      {"rotor", {}},     {"vertexwalk", {}}, {"rwc", {{"d", "3"}}},
      {"leastused", {}}, {"oldest", {}},     {"srw", {{"lazy", "true"}}},
  };
  std::uint64_t seed = 3101;
  for (const auto& [name, params] : entries) {
    Rng rng(seed++);
    auto walk = ProcessRegistry::instance().create(name, g, params, rng);
    run(*walk, rng);
  }
  std::vector<double> weights(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) weights[e] = 1.0 + (e % 5) * 0.75;
  Rng rng(seed);
  WeightedRandomWalk walk(g, 0, weights);
  run(walk, rng);
  return h.h;
}

// Above the huge-page threshold: regular-pairing n = 300000, r = 4 has
// 1.2M slots and 600000 edges, so every per-slot and per-edge array — the
// CSR's slots and edges, BluePartition's two slot tables — is over 2 MiB
// and lives on MADV_HUGEPAGE-advised storage (util/huge_pages.hpp). The
// messy-multigraph scenarios above are all far below it.
const Graph& large_regular() {
  static const Graph g = [] {
    Rng rng(300000);
    return GeneratorRegistry::instance().create(
        "regular-pairing", ParamMap{{"n", "300000"}, {"r", "4"}}, rng);
  }();
  return g;
}

// The E-process (uniform rule) on large_regular() from vertex 0 to vertex
// cover, hashing every position.
std::uint64_t large_eprocess_cover() {
  const Graph& g = large_regular();
  Rng rng(16);
  auto rule = make_rule("uniform", g, rng);
  EProcess walk(g, 0, *rule);
  Hasher h;
  while (!walk.cover().all_vertices_covered()) {
    walk.step(rng);
    h.mix(walk.current());
  }
  h.mix(walk.steps());
  h.mix(walk.blue_steps());
  h.mix(walk.cover().edges_covered());
  return h.h;
}

// The SRW on large_regular() for 4M steps, hashing every position.
std::uint64_t large_srw_trajectory() {
  const Graph& g = large_regular();
  Rng rng(17);
  SimpleRandomWalk walk(g, 0);
  Hasher h;
  for (std::uint64_t i = 0; i < 4'000'000; ++i) {
    walk.step(rng);
    h.mix(walk.current());
  }
  h.mix(walk.cover().vertices_covered());
  return h.h;
}

std::uint64_t herman_run() {
  const Graph g = cycle_graph(101);
  Rng rng(31337);
  HermanRing ring(g, spread_token_starts(g.num_vertices(), 7, 0));
  run_until_process(ring, rng, CoalescedToOne{}, 10'000'000);
  Hasher h;
  h.mix(ring.coalescence_step());
  h.mix(ring.steps());
  h.mix(ring.current());
  return h.h;
}

// Registry + strided run_until: E-process driven to vertex cover through
// the WalkProcess interface, its predicate checked every
// visit_count_stride steps.
std::uint64_t registry_chunked_cover() {
  const Graph g = messy_multigraph();
  Rng rng(5150);
  auto walk = ProcessRegistry::instance().create(
      "eprocess", g, ParamMap{{"rule", "priority"}}, rng);
  run_until(*walk, rng, VertexCovered{}, 1'000'000, visit_count_stride(g));
  Hasher h;
  h.mix(walk->steps());
  h.mix(walk->cover().vertex_cover_step());
  h.mix(walk->current());
  return h.h;
}

std::uint64_t hash_samples(const std::vector<double>& samples) {
  Hasher h;
  for (double s : samples) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(s));
    __builtin_memcpy(&bits, &s, sizeof(bits));
    h.mix(bits);
  }
  return h.h;
}

// Parallel experiment harness: per-trial streams through the trial kernel.
std::uint64_t measure_cover_samples(std::uint32_t threads) {
  RunRequest req;
  req.trials = 8;
  req.threads = threads;
  req.seed = 2024;
  const auto result = measure_cover(
      [](const Graph& g, Rng&) -> std::unique_ptr<WalkProcess> {
        Rng unused(0);
        return std::make_unique<EProcessHandle>(g, /*start=*/0,
                                                make_rule("uniform", g, unused));
      },
      [](Rng& rng) { return random_regular_connected(200, 4, rng); }, req);
  return hash_samples(result.samples);
}

std::uint64_t measure_coalescence_samples(std::uint32_t threads) {
  RunRequest req;
  req.trials = 8;
  req.threads = threads;
  req.seed = 4096;
  const auto result = measure_coalescence(
      [](const Graph& g, Rng&) -> std::unique_ptr<TokenProcess> {
        return std::make_unique<CoalescingRW>(
            g, spread_token_starts(g.num_vertices(), 6, 0));
      },
      [](Rng&) { return hypercube(7); }, req);
  Hasher h;
  h.mix(hash_samples(result.samples));
  h.mix(hash_samples(result.meeting_samples));
  return h.h;
}

// A sweep exercising every path of its trial loop: two series per point on
// random regular graphs (SRW to vertex cover, E-process to edge cover),
// adaptive rounds past the floor, bundles of two trials, and a step budget
// that leaves some trials uncovered (clamped to the budget).
std::uint64_t sweep_samples(std::uint32_t threads) {
  std::vector<SweepPoint> points;
  for (const Vertex n : {40, 80}) {
    SweepPoint point;
    point.label = "n" + std::to_string(n);
    point.params = {{"n", static_cast<double>(n)}};
    point.graph = [n](Rng& rng) {
      return random_regular_pairing_connected(n, 4, rng);
    };
    point.series = {
        SweepSeriesSpec{"srw",
                        [](const Graph& g, Rng&) -> std::unique_ptr<WalkProcess> {
                          return std::make_unique<SimpleRandomWalk>(g, 0);
                        },
                        CoverTarget::kVertices},
        SweepSeriesSpec{"eprocess",
                        [](const Graph& g, Rng& rng) -> std::unique_ptr<WalkProcess> {
                          return std::make_unique<EProcessHandle>(
                              g, 0, make_rule("uniform", g, rng));
                        },
                        CoverTarget::kEdges}};
    point.max_steps = 600;
    points.push_back(std::move(point));
  }
  SweepConfig config;
  config.trials = 3;
  config.threads = threads;
  config.master_seed = 31337;
  config.max_trials = 8;
  config.ci_rel_target = 1e-9;  // never met: every series runs to the cap
  config.bundle_width = 2;
  const SweepResult result = run_sweep("golden", points, config);
  Hasher h;
  for (const SweepPointResult& point : result.points)
    for (const SweepSeriesResult& series : point.series) {
      h.mix(hash_samples(series.samples));
      h.mix(series.uncovered_trials);
      h.mix(series.trials_used);
    }
  return h.h;
}

// ---- Golden constants (produced by the pre-optimisation implementation) ---

constexpr std::uint64_t kGoldenEProcessUniform = 0x54BE81FDB047691AULL;
constexpr std::uint64_t kGoldenEProcessRoundRobin = 0x585E343619067524ULL;
constexpr std::uint64_t kGoldenEProcessAdversary = 0xA42349384C6DC2A3ULL;
constexpr std::uint64_t kGoldenMultiEProcess = 0x4625475AD7E0AAA8ULL;
constexpr std::uint64_t kGoldenCoalescingEWalk = 0x64338EE1F5143885ULL;
constexpr std::uint64_t kGoldenSrw = 0xEE72FD043017D2CCULL;
constexpr std::uint64_t kGoldenHerman = 0x155F93A836DE2D9CULL;
constexpr std::uint64_t kGoldenRegistryChunkedCover = 0xCF56F55BD7929475ULL;
constexpr std::uint64_t kGoldenMeasureCover = 0xCD18DE61349D1940ULL;
constexpr std::uint64_t kGoldenMeasureCoalescence = 0x585855EE7023B846ULL;
// Recorded before the graph and walk-state arrays moved to huge-page-backed
// storage: the allocator must change no sample.
constexpr std::uint64_t kGoldenLargeEProcessCover = 0xC70D62065207C99FULL;
constexpr std::uint64_t kGoldenLargeSrw = 0x7049C85430AF0013ULL;
// Recorded before the four token classes' state moved into TokenProcess.
constexpr std::uint64_t kGoldenTokenProcesses = 0x31C4488CA9A9FEABULL;
// Recorded before the sweep's series moved onto TrialTarget's bundle runner.
constexpr std::uint64_t kGoldenSweep = 0x6A89AAF42173C62DULL;
// Recorded before the six single-walker classes moved onto SingleWalk.
constexpr std::uint64_t kGoldenSingleWalkers = 0x3D2F826CFB471586ULL;

constexpr std::uint64_t kTrajectorySteps = 6000;

}  // namespace
}  // namespace ewalk

#ifdef EWALK_GOLDEN_PRINT

#include <cstdio>

int main() {
  using namespace ewalk;
  std::printf("kGoldenEProcessUniform     0x%016llXULL\n",
              (unsigned long long)eprocess_trajectory("uniform", kTrajectorySteps));
  std::printf("kGoldenEProcessRoundRobin  0x%016llXULL\n",
              (unsigned long long)eprocess_trajectory("roundrobin", kTrajectorySteps));
  std::printf("kGoldenEProcessAdversary   0x%016llXULL\n",
              (unsigned long long)eprocess_trajectory("adversary", kTrajectorySteps));
  std::printf("kGoldenMultiEProcess       0x%016llXULL\n",
              (unsigned long long)multi_eprocess_trajectory(kTrajectorySteps));
  std::printf("kGoldenCoalescingEWalk     0x%016llXULL\n",
              (unsigned long long)coalescing_ewalk_trajectory(kTrajectorySteps));
  std::printf("kGoldenSrw                 0x%016llXULL\n",
              (unsigned long long)srw_trajectory(kTrajectorySteps));
  std::printf("kGoldenHerman              0x%016llXULL\n",
              (unsigned long long)herman_run());
  std::printf("kGoldenRegistryChunkedCover 0x%016llXULL\n",
              (unsigned long long)registry_chunked_cover());
  std::printf("kGoldenMeasureCover        0x%016llXULL\n",
              (unsigned long long)measure_cover_samples(4));
  std::printf("kGoldenMeasureCoalescence  0x%016llXULL\n",
              (unsigned long long)measure_coalescence_samples(4));
  std::printf("kGoldenLargeEProcessCover  0x%016llXULL\n",
              (unsigned long long)large_eprocess_cover());
  std::printf("kGoldenLargeSrw            0x%016llXULL\n",
              (unsigned long long)large_srw_trajectory());
  std::printf("kGoldenTokenProcesses      0x%016llXULL\n",
              (unsigned long long)token_processes_trajectory(kTrajectorySteps));
  std::printf("kGoldenSweep               0x%016llXULL\n",
              (unsigned long long)sweep_samples(4));
  std::printf("kGoldenSingleWalkers       0x%016llXULL\n",
              (unsigned long long)single_walkers_trajectory(kTrajectorySteps));
  return 0;
}

#else  // EWALK_GOLDEN_PRINT

#include <gtest/gtest.h>

namespace ewalk {
namespace {

TEST(StreamIdentity, EProcessUniformOnMultigraphMatchesGolden) {
  EXPECT_EQ(eprocess_trajectory("uniform", kTrajectorySteps),
            kGoldenEProcessUniform);
}

TEST(StreamIdentity, EProcessRoundRobinOnMultigraphMatchesGolden) {
  EXPECT_EQ(eprocess_trajectory("roundrobin", kTrajectorySteps),
            kGoldenEProcessRoundRobin);
}

TEST(StreamIdentity, EProcessAdversaryOnMultigraphMatchesGolden) {
  EXPECT_EQ(eprocess_trajectory("adversary", kTrajectorySteps),
            kGoldenEProcessAdversary);
}

TEST(StreamIdentity, MultiEProcessOnMultigraphMatchesGolden) {
  EXPECT_EQ(multi_eprocess_trajectory(kTrajectorySteps), kGoldenMultiEProcess);
}

TEST(StreamIdentity, CoalescingEWalkOnMultigraphMatchesGolden) {
  EXPECT_EQ(coalescing_ewalk_trajectory(kTrajectorySteps),
            kGoldenCoalescingEWalk);
}

TEST(StreamIdentity, TokenProcessesMatchGolden) {
  EXPECT_EQ(token_processes_trajectory(kTrajectorySteps), kGoldenTokenProcesses);
}

TEST(StreamIdentity, SrwOnMultigraphMatchesGolden) {
  EXPECT_EQ(srw_trajectory(kTrajectorySteps), kGoldenSrw);
}

TEST(StreamIdentity, SingleWalkersMatchGolden) {
  EXPECT_EQ(single_walkers_trajectory(kTrajectorySteps), kGoldenSingleWalkers);
}

TEST(StreamIdentity, HermanStabilisationMatchesGolden) {
  EXPECT_EQ(herman_run(), kGoldenHerman);
}

TEST(StreamIdentity, RegistryChunkedCoverMatchesGolden) {
  EXPECT_EQ(registry_chunked_cover(), kGoldenRegistryChunkedCover);
}

TEST(StreamIdentity, MeasureCoverSamplesMatchGoldenOnThreadPool) {
  EXPECT_EQ(measure_cover_samples(4), kGoldenMeasureCover);
}

TEST(StreamIdentity, MeasureCoalescenceSamplesMatchGoldenOnThreadPool) {
  EXPECT_EQ(measure_coalescence_samples(4), kGoldenMeasureCoalescence);
}

TEST(StreamIdentity, SweepSamplesMatchGolden) {
  EXPECT_EQ(sweep_samples(4), kGoldenSweep);
  EXPECT_EQ(sweep_samples(1), kGoldenSweep);
}

TEST(StreamIdentity, EProcessCoverAboveHugePageThresholdMatchesGolden) {
  EXPECT_EQ(large_eprocess_cover(), kGoldenLargeEProcessCover);
}

TEST(StreamIdentity, SrwAboveHugePageThresholdMatchesGolden) {
  EXPECT_EQ(large_srw_trajectory(), kGoldenLargeSrw);
}

// ---- Thread-count invariance on the persistent pool ----------------------

TEST(ThreadPoolIdentity, MeasureCoverSamplesInvariantAcross1To8Threads) {
  const std::uint64_t t1 = measure_cover_samples(1);
  const std::uint64_t t2 = measure_cover_samples(2);
  const std::uint64_t t8 = measure_cover_samples(8);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

TEST(ThreadPoolIdentity, MeasureCoalescenceSamplesInvariantAcross1To8Threads) {
  const std::uint64_t t1 = measure_coalescence_samples(1);
  const std::uint64_t t2 = measure_coalescence_samples(2);
  const std::uint64_t t8 = measure_coalescence_samples(8);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

TEST(ThreadPoolIdentity, TaskExceptionPropagatesToCallerAndPoolSurvives) {
  const Graph g = cycle_graph(50);
  const TrialTarget target(CoverTarget::kVertices);
  std::atomic<int> built{0};
  const TrialBuilder build = [&](Rng&) {
    if (built++ == 3) throw std::runtime_error("trial failed");
    return TrialSetup{nullptr, std::make_unique<SimpleRandomWalk>(g, 0)};
  };
  RunRequest req;
  req.trials = 16;
  req.threads = 8;
  EXPECT_THROW(run_target_trials(req, target, build), std::runtime_error);
  // The pool survives a failed run and serves later calls normally (the
  // count is past 3, so no later build throws).
  built = 4;
  const auto ok = run_target_trials(req, target, build);
  ASSERT_EQ(ok.size(), 16u);
  for (const TrialOutcome& trial : ok) EXPECT_TRUE(trial.done);
}

TEST(ThreadPoolIdentity, ZeroTrialsReturnNoOutcomes) {
  RunRequest req;
  req.trials = 0;
  req.threads = 4;
  const auto out = run_target_trials(
      req, TrialTarget(CoverTarget::kVertices),
      [](Rng&) -> TrialSetup { throw std::logic_error("no trial to build"); });
  EXPECT_TRUE(out.empty());
}

// ---- run_until check stride ---------------------------------------------

TEST(DriverStride, ChunkedDriverMatchesUnchunkedDriver) {
  const Graph g = messy_multigraph();
  Rng rng_a(7), rng_b(7);
  auto a = ProcessRegistry::instance().create("srw", g, {}, rng_a);
  auto b = ProcessRegistry::instance().create("srw", g, {}, rng_b);
  const bool done_a = run_until(*a, rng_a, VertexCovered{}, 500'000, 1);
  // A big stride checks b's predicate only every 4096 steps. The trajectory
  // is rng-driven identically (run_until draws nothing), so the covered
  // step must coincide; only where b *stops* may overshoot to its chunk
  // boundary.
  const bool done_b = run_until(*b, rng_b, VertexCovered{}, 500'000, 4096);
  EXPECT_EQ(done_a, done_b);
  EXPECT_EQ(a->cover().vertex_cover_step(), b->cover().vertex_cover_step());
  EXPECT_GE(b->steps(), a->steps());
  EXPECT_LE(b->steps() - a->steps(), 4096u);
}

// ---- O(1) eviction vs reference scan-based partition ---------------------

// The pre-optimisation evict: scan the blue prefix for the slot carrying the
// edge, swap it with the last blue position. Kept here as the executable
// specification the O(1) index must match move-for-move.
class ReferencePartition {
 public:
  explicit ReferencePartition(const Graph& g)
      : order_(2 * static_cast<std::size_t>(g.num_edges())),
        blue_count_(g.num_vertices()) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const std::uint32_t off = g.slot_offset(v);
      const std::uint32_t d = g.degree(v);
      blue_count_[v] = d;
      for (std::uint32_t k = 0; k < d; ++k) order_[off + k] = k;
    }
  }

  std::uint32_t blue_count(Vertex v) const { return blue_count_[v]; }

  std::uint32_t local_slot(const Graph& g, Vertex v, std::uint32_t p) const {
    return order_[g.slot_offset(v) + p];
  }

  void mark_edge_visited(const Graph& g, EdgeId e) {
    const auto [u, v] = g.endpoints(e);
    evict(g, u, e);
    evict(g, u == v ? u : v, e);
  }

 private:
  void evict(const Graph& g, Vertex owner, EdgeId edge) {
    const std::uint32_t off = g.slot_offset(owner);
    const std::uint32_t b = blue_count_[owner];
    for (std::uint32_t p = 0; p < b; ++p) {
      const std::uint32_t k = order_[off + p];
      if (g.slot(owner, k).edge == edge) {
        const std::uint32_t last = b - 1;
        order_[off + p] = order_[off + last];
        order_[off + last] = k;
        blue_count_[owner] = last;
        return;
      }
    }
    FAIL() << "reference evict: edge not blue at owner";
  }

  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> blue_count_;
};

// A hub whose row interleaves self-loops, parallel spokes and single
// spokes, so a self-loop often has both slots deep inside a long blue
// prefix: the case where the order of its two evictions shows in the
// permutation. (messy_multigraph's loops sit near the end of short rows,
// where either order leaves the same prefix.)
Graph loop_hub() {
  GraphBuilder b(6);
  for (Vertex i = 0; i < 18; ++i) b.add_edge(0, i % 3 == 0 ? 0 : 1 + i % 5);
  for (Vertex v = 1; v < 6; ++v) b.add_edge(v, v % 5 + 1);
  return b.build();
}

// Evicts every edge of g once, in a random order, each from a random one of
// its two slots (a walker at either endpoint, or at either slot of a
// self-loop), and compares every vertex's blue prefix, slot for slot, with
// the reference scan after each move. The far end is found by edge id in
// its row, so parallel edges (distinct ids at the same endpoints) must each
// find their own slot.
void expect_matches_reference(const Graph& g, std::uint64_t seed) {
  BluePartition fast(g);
  ReferencePartition ref(g);
  Rng rng(seed);
  std::vector<EdgeId> edges(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) edges[e] = e;
  rng.shuffle(std::span<EdgeId>(edges));

  std::uint32_t from_u = 0, from_v = 0;
  for (const EdgeId e : edges) {
    // The edge's two slots, found by a scan that assumes no row order.
    std::vector<std::pair<Vertex, std::uint32_t>> ends;
    const auto [u, v] = g.endpoints(e);
    const auto scan = [&](Vertex w) {
      for (std::uint32_t k = 0; k < g.degree(w); ++k)
        if (g.slot(w, k).edge == e) ends.emplace_back(w, k);
    };
    scan(u);
    if (v != u) scan(v);
    ASSERT_EQ(ends.size(), 2u) << "edge " << e;
    const auto [at, k] = ends[rng.uniform(2)];
    ++(at == u ? from_u : from_v);

    const Slot taken = fast.mark_slot_visited(g, at, k);
    EXPECT_EQ(taken.edge, e);
    EXPECT_EQ(taken.neighbor, g.other_endpoint(e, at));
    ref.mark_edge_visited(g, e);
    for (Vertex w = 0; w < g.num_vertices(); ++w) {
      ASSERT_EQ(fast.blue_count(w), ref.blue_count(w)) << "vertex " << w;
      for (std::uint32_t p = 0; p < fast.blue_count(w); ++p) {
        ASSERT_EQ(fast.local_slot(g, w, p), ref.local_slot(g, w, p))
            << "seed " << seed << " vertex " << w << " position " << p;
      }
    }
  }
  EXPECT_GT(from_u, 0u);
  EXPECT_GT(from_v, 0u);
  for (Vertex v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(fast.blue_count(v), 0u);
}

TEST(BluePartitionIdentity, MatchesReferenceScanMoveForMoveOnMultigraphs) {
  for (const Graph& g : {messy_multigraph(), loop_hub()}) {
    ASSERT_TRUE(g.has_self_loops());
    ASSERT_TRUE(g.has_parallel_edges());
    for (std::uint64_t seed = 2718; seed < 2738; ++seed) {
      expect_matches_reference(g, seed);
      if (HasFatalFailure()) return;
    }
  }
}

// (The FillCandidatesMatchesBlueSlotEnumeration test retired with the
// deprecated BluePartition::fill_candidates: the reference-scan comparison
// above already pins blue_slot()'s enumeration order move for move.)

}  // namespace
}  // namespace ewalk

#endif  // EWALK_GOLDEN_PRINT
