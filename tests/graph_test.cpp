// Tests for the graph core: construction, multigraph semantics, CSR
// integrity, huge-page-backed storage, basic algorithms, and serialisation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/registry.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/huge_pages.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include "test_graphs.hpp"

namespace ewalk {
namespace {

// Give the Executor four workers even on single-core CI runners, so builds
// above the part grain split into several parts that really run
// concurrently. Runs before main(), i.e. before the first
// Executor::instance() call in this binary; an explicit EWALK_WORKERS in
// the environment wins.
const bool kWorkersEnvSet = [] {
  setenv("EWALK_WORKERS", "4", /*overwrite=*/0);
  return true;
}();

// Same vertex count, edge list (ids and endpoints), slot rows and flags.
void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.endpoints(e).u, b.endpoints(e).u);
    EXPECT_EQ(a.endpoints(e).v, b.endpoints(e).v);
  }
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v));
    for (std::uint32_t k = 0; k < a.degree(v); ++k) {
      EXPECT_EQ(a.slot(v, k).neighbor, b.slot(v, k).neighbor);
      EXPECT_EQ(a.slot(v, k).edge, b.slot(v, k).edge);
    }
  }
  EXPECT_EQ(a.min_degree(), b.min_degree());
  EXPECT_EQ(a.max_degree(), b.max_degree());
  EXPECT_EQ(a.all_degrees_even(), b.all_degrees_even());
  EXPECT_EQ(a.has_self_loops(), b.has_self_loops());
  EXPECT_EQ(a.has_parallel_edges(), b.has_parallel_edges());
}

Graph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  return b.build();
}

TEST(Graph, TriangleBasics) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  for (Vertex v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.all_degrees_even());
  EXPECT_TRUE(g.is_regular(2));
  EXPECT_TRUE(g.is_simple());
}

TEST(Graph, SlotsConsistentWithEndpoints) {
  const Graph g = triangle();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const Slot& s : g.slots(v)) {
      const auto [a, b] = g.endpoints(s.edge);
      EXPECT_TRUE((a == v && b == s.neighbor) || (b == v && a == s.neighbor));
      EXPECT_EQ(g.other_endpoint(s.edge, v), s.neighbor);
    }
  }
}

TEST(Graph, SlotIndexingRoundTrip) {
  const Graph g = complete_graph(6);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (std::uint32_t k = 0; k < g.degree(v); ++k) {
      EXPECT_EQ(g.slot_index(v, k), g.slot_offset(v) + k);
      const Slot& s = g.slot(v, k);
      EXPECT_LT(s.neighbor, g.num_vertices());
      EXPECT_LT(s.edge, g.num_edges());
    }
  }
}

TEST(Graph, SelfLoopCountsTwice) {
  GraphBuilder b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_TRUE(g.has_self_loops());
  EXPECT_FALSE(g.is_simple());
  // The loop occupies two slots at vertex 0 with the same edge id.
  int loop_slots = 0;
  for (const Slot& s : g.slots(0))
    if (s.neighbor == 0) ++loop_slots;
  EXPECT_EQ(loop_slots, 2);
}

TEST(Graph, ParallelEdgesDetected) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_TRUE(g.has_parallel_edges());
  EXPECT_FALSE(g.is_simple());
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_TRUE(g.all_degrees_even());
}

TEST(Graph, OddDegreeFlag) {
  const Graph g = path_graph(3);
  EXPECT_FALSE(g.all_degrees_even());
  EXPECT_EQ(g.min_degree(), 1u);
  EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Graph, StationaryProbabilitySumsToOne) {
  const Graph g = lollipop(5, 4);
  double total = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) total += g.stationary_probability(v);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Graph, FromEdgesRejectsOutOfRange) {
  const Endpoints bad[] = {{0, 5}};
  EXPECT_THROW(Graph::from_edges(3, bad), std::invalid_argument);
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::invalid_argument);
}

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(0, std::vector<Endpoints>{});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Graph, MoveBuildMatchesCopyBuildExactly) {
  // The memory-lean move overload must produce a bit-identical CSR to the
  // span (copying) overload: same slot order, same edge ids, same flags —
  // walks replay the same trajectories whichever path built the graph.
  Rng rng(7);
  const Graph ref = random_regular_pairing(200, 5, rng);
  EdgeList edges;
  for (EdgeId e = 0; e < ref.num_edges(); ++e) edges.push_back(ref.endpoints(e));

  const Graph copied =
      Graph::from_edges(200, std::span<const Endpoints>(edges));
  const Graph moved = Graph::from_edges(200, std::move(edges));
  expect_same_graph(copied, moved);
}

TEST(Graph, CopyEqualsSource) {
  // 200000 vertices, r = 4: the slot and edge arrays are over 2 MiB, so the
  // copy allocates advised blocks of its own.
  Rng rng(11);
  const Graph source = random_regular_pairing(200000, 4, rng);
  const Graph copy = source;  // NOLINT(performance-unnecessary-copy-initialization)
  expect_same_graph(source, copy);
  EXPECT_NE(copy.slots(0).data(), source.slots(0).data());
}

TEST(Graph, MoveBuildCensusHandlesLoopsAndParallels) {
  // The parallel-edge census is folded into the slot scan; self-loops (twin
  // adjacent slots), duplicate loops, and k-fold parallel edges must all be
  // classified exactly as the builder path used to.
  std::vector<Endpoints> edges = {{0, 1}, {0, 1}, {0, 1},  // 3-fold parallel
                                  {1, 1}, {1, 1},          // duplicate loops
                                  {2, 3}, {3, 2},          // parallel, reversed
                                  {4, 4}};                 // lone loop
  const Graph g = Graph::from_edges(5, std::move(edges));
  EXPECT_TRUE(g.has_self_loops());
  EXPECT_TRUE(g.has_parallel_edges());
  EXPECT_FALSE(g.is_simple());
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 7u);  // 3 parallels + two loops counting twice
  EXPECT_EQ(g.degree(4), 2u);

  const Graph simple = Graph::from_edges(
      3, std::vector<Endpoints>{{0, 1}, {1, 2}, {2, 0}});
  EXPECT_TRUE(simple.is_simple());
}

// ---- Row order (Graph::from_edges contract) -------------------------------

// Every slot row ascends by edge id, and a self-loop's two slots are
// adjacent: the order BluePartition::mark_slot_visited relies on to find an
// edge's slot at its far endpoint by binary search.
void expect_rows_ascend_by_edge_id(const Graph& g, const std::string& label) {
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::span<const Slot> row = g.slots(v);
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (k > 0) {
        ASSERT_LE(row[k - 1].edge, row[k].edge)
            << label << ": vertex " << v << " slot " << k;
      }
      const bool twin_before = k > 0 && row[k - 1].edge == row[k].edge;
      const bool twin_after = k + 1 < row.size() && row[k + 1].edge == row[k].edge;
      const int expected = row[k].neighbor == v ? 1 : 0;  // self-loop: one twin
      EXPECT_EQ(int{twin_before} + int{twin_after}, expected)
          << label << ": vertex " << v << " slot " << k;
    }
  }
}

TEST(Graph, RowsAscendByEdgeIdWithSelfLoopTwinsAdjacent) {
  const Graph messy = messy_multigraph();
  ASSERT_TRUE(messy.has_self_loops());
  ASSERT_TRUE(messy.has_parallel_edges());
  expect_rows_ascend_by_edge_id(messy, "messy_multigraph");

  // Every registered family at a small size; "file" reads messy_multigraph
  // back from an edge-list file.
  const std::string path = ::testing::TempDir() + "row_order_graph.txt";
  {
    std::ofstream out(path);
    write_edge_list(messy, out);
  }
  const std::vector<std::pair<std::string, ParamMap>> cases = {
      {"regular", {{"n", "60"}, {"r", "4"}}},
      {"regular-pairing", {{"n", "60"}, {"r", "4"}}},
      {"hamunion", {{"n", "60"}, {"k", "3"}}},
      {"cycle", {{"n", "60"}}},
      {"complete", {{"n", "12"}}},
      {"hypercube", {{"r", "5"}}},
      {"torus", {{"w", "6"}, {"h", "5"}}},
      {"grid", {{"w", "6"}, {"h", "5"}}},
      {"geometric", {{"n", "60"}, {"radius", "0.3"}}},
      {"erdosrenyi", {{"n", "60"}, {"p", "0.1"}}},
      {"lps", {{"p", "5"}, {"q", "13"}}},
      {"margulis", {{"k", "8"}}},
      {"circulant", {{"n", "60"}, {"offsets", "1,2,7"}}},
      {"lollipop", {{"clique", "6"}, {"tail", "5"}}},
      {"pcf", {{"base", "regular"}, {"n", "60"}, {"r", "4"}}},
      {"petersen", {}},
      {"file", {{"path", path}}},
  };
  std::set<std::string> registered, listed;
  for (const GeneratorEntry& e : GeneratorRegistry::instance().entries())
    registered.insert(e.name);
  for (const auto& [family, params] : cases) {
    listed.insert(family);
    Rng rng(7);
    const Graph g = GeneratorRegistry::instance().create(family, params, rng);
    ASSERT_GT(g.num_edges(), 0u) << family;
    expect_rows_ascend_by_edge_id(g, family);
  }
  EXPECT_EQ(registered, listed);
  std::remove(path.c_str());
}

// ---- Graphs above the part grain ------------------------------------------

// FNV-1a over the vertex and edge counts, every row offset, every slot and
// every edge's endpoints.
std::uint64_t csr_hash(const Graph& g) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  mix(g.num_vertices());
  mix(g.num_edges());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    mix(g.slot_offset(v));
    for (const Slot& s : g.slots(v))
      mix((std::uint64_t{s.neighbor} << 32) | s.edge);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    mix((std::uint64_t{g.endpoints(e).u} << 32) | g.endpoints(e).v);
  return h;
}

// regular-pairing at n = 1.05e6, r = 4: 2.1e6 edges, over twice the 2^20-edge
// part grain, so generation and the CSR build split into parts.
constexpr Vertex kLargePairingN = 1'050'000;
// Recorded with the serial generator and CSR build.
constexpr std::uint64_t kGoldenPairingCsr = 0x6D99708FAA8ECCC7ULL;

// Runs `make` as the one task of a root TaskScope capped at `cap` threads:
// the parts of a build inside it share that cap.
template <typename Make>
Graph in_scope(std::uint32_t cap, const Make& make) {
  Graph g;
  TaskScope scope(cap);
  scope.spawn([&] { g = make(); });
  scope.wait();
  return g;
}

// The CSR as a plain serial build lays it out: degrees counted, rows filled
// in edge id order through a cursor vector. The census comes from sorted
// endpoint keys, independent of the rows.
struct SerialCsr {
  std::vector<std::uint32_t> offsets;
  std::vector<Slot> slots;
  std::uint64_t self_loops = 0;
  std::uint64_t parallel_edges = 0;
};

SerialCsr serial_csr(Vertex n, std::span<const Endpoints> edges) {
  SerialCsr c;
  c.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::uint64_t> keys;
  for (const auto& [u, v] : edges) {
    ++c.offsets[u + 1];
    ++c.offsets[v + 1];
    c.self_loops += u == v;
    keys.push_back((std::uint64_t{std::min(u, v)} << 32) | std::max(u, v));
  }
  std::partial_sum(c.offsets.begin(), c.offsets.end(), c.offsets.begin());
  std::vector<std::uint32_t> cursor(c.offsets.begin(), c.offsets.end() - 1);
  c.slots.resize(2 * edges.size());
  for (EdgeId e = 0; e < edges.size(); ++e) {
    const auto [u, v] = edges[e];
    c.slots[cursor[u]++] = Slot{v, e};
    c.slots[cursor[v]++] = Slot{u, e};
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 1; i < keys.size(); ++i) c.parallel_edges += keys[i] == keys[i - 1];
  return c;
}

// g is the serial layout of `edges`: offsets, slots, edges and census. Stops
// at the first differing entry.
void expect_serial_layout(const Graph& g, std::span<const Endpoints> edges,
                          const SerialCsr& want, const std::string& label) {
  ASSERT_EQ(g.num_edges(), edges.size()) << label;
  std::uint32_t min_degree = ~0u, max_degree = 0;
  bool all_even = true;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::uint32_t d = want.offsets[v + 1] - want.offsets[v];
    ASSERT_EQ(g.slot_offset(v), want.offsets[v]) << label << ": row " << v;
    ASSERT_EQ(g.degree(v), d) << label << ": row " << v;
    for (std::uint32_t k = 0; k < d; ++k) {
      const Slot& got = g.slot(v, k);
      const Slot& expected = want.slots[want.offsets[v] + k];
      if (got.neighbor != expected.neighbor || got.edge != expected.edge)
        FAIL() << label << ": row " << v << " slot " << k;
    }
    min_degree = std::min(min_degree, d);
    max_degree = std::max(max_degree, d);
    all_even = all_even && d % 2 == 0;
  }
  EXPECT_EQ(g.min_degree(), min_degree) << label;
  EXPECT_EQ(g.max_degree(), max_degree) << label;
  EXPECT_EQ(g.all_degrees_even(), all_even) << label;
  for (EdgeId e = 0; e < edges.size(); ++e)
    if (g.endpoints(e).u != edges[e].u || g.endpoints(e).v != edges[e].v)
      FAIL() << label << ": edge " << e;
  EXPECT_EQ(g.self_loop_count(), want.self_loops) << label;
  EXPECT_EQ(g.parallel_edge_count(), want.parallel_edges) << label;
  EXPECT_EQ(g.has_self_loops(), want.self_loops > 0) << label;
  EXPECT_EQ(g.has_parallel_edges(), want.parallel_edges > 0) << label;
}

// messy_multigraph tiled `copies` times on disjoint vertex ranges, every
// tile joined to the next by a bridge that doubles as a parallel edge.
std::pair<Vertex, EdgeList> tiled_messy(Vertex copies) {
  const Graph tile = messy_multigraph();
  const Vertex size = tile.num_vertices();
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(copies) * (tile.num_edges() + 2));
  for (Vertex c = 0; c < copies; ++c) {
    const Vertex base = c * size;
    for (EdgeId e = 0; e < tile.num_edges(); ++e)
      edges.push_back({base + tile.endpoints(e).u, base + tile.endpoints(e).v});
    if (c + 1 < copies) {
      edges.push_back({base + size - 1, base + size});
      edges.push_back({base + size, base + size - 1});
    }
  }
  return {copies * size, std::move(edges)};
}

TEST(Graph, BuildAboveGrainMatchesSerialLayoutAtEveryCap) {
  // Over three grains of edges, with loops and parallel edges wherever a
  // part boundary falls.
  const auto [n, edges] = tiled_messy(3 * static_cast<Vertex>(kPartGrain / 100));
  ASSERT_GE(edges.size(), 3 * kPartGrain);
  ASSERT_GT(part_count(edges.size()), 1u);
  const SerialCsr want = serial_csr(n, edges);
  ASSERT_GT(want.self_loops, 0u);
  ASSERT_GT(want.parallel_edges, 0u);
  for (const std::uint32_t cap : {1u, 2u, 4u}) {
    const Graph g = in_scope(cap, [&, n = n] { return Graph::from_edges(n, EdgeList(edges)); });
    expect_serial_layout(g, edges, want, "tiled messy, cap " + std::to_string(cap));
    expect_rows_ascend_by_edge_id(g, "tiled messy");
  }

  // Three vertices with rows of a million slots: parts hold one vertex or
  // none, and the census sorts its long rows.
  EdgeList dense;
  const Endpoints pattern[] = {{0, 1}, {1, 1}, {1, 2}, {2, 0}, {0, 0}, {2, 1}};
  while (dense.size() < 2 * kPartGrain + 6)
    for (const Endpoints& e : pattern) dense.push_back(e);
  const SerialCsr want_dense = serial_csr(3, dense);
  for (const std::uint32_t cap : {1u, 2u, 4u}) {
    const Graph g = in_scope(cap, [&] { return Graph::from_edges(3, EdgeList(dense)); });
    expect_serial_layout(g, dense, want_dense, "dense, cap " + std::to_string(cap));
  }

  Rng rng(3);
  const Graph pairing = random_regular_pairing(kLargePairingN, 4, rng);
  EdgeList pairing_edges;
  for (EdgeId e = 0; e < pairing.num_edges(); ++e) pairing_edges.push_back(pairing.endpoints(e));
  ASSERT_GE(pairing_edges.size(), 2 * kPartGrain);
  const SerialCsr want_pairing = serial_csr(kLargePairingN, pairing_edges);
  expect_serial_layout(pairing, pairing_edges, want_pairing, "regular-pairing");
  for (const std::uint32_t cap : {1u, 2u, 4u}) {
    const Graph g = in_scope(cap, [&] {
      return Graph::from_edges(kLargePairingN, EdgeList(pairing_edges));
    });
    expect_serial_layout(g, pairing_edges, want_pairing,
                         "regular-pairing, cap " + std::to_string(cap));
  }
}

TEST(Graph, PairingCsrMatchesGoldenAtEveryCap) {
  for (const std::uint32_t cap : {1u, 2u, 4u}) {
    const Graph g = in_scope(cap, [] {
      Rng rng(1);
      return random_regular_pairing_connected(kLargePairingN, 4, rng);
    });
    EXPECT_EQ(csr_hash(g), kGoldenPairingCsr)
        << "cap " << cap << ": 0x" << std::hex << std::uppercase << csr_hash(g);
  }
}

// ---- Huge-page-backed storage (util/huge_pages.hpp) ----------------------

// The VmFlags line of the /proc/self/smaps mapping containing `addr`, or ""
// when the file is unreadable or no mapping contains it.
std::string vm_flags_of(const void* addr) {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    // Mapping headers read "lo-hi perms ..."; field lines ("Rss:",
    // "AnonHugePages:") never parse as a hex pair joined by '-'.
    std::istringstream head(line);
    std::uintptr_t lo = 0, hi = 0;
    char dash = 0;
    if (head >> std::hex >> lo >> dash >> hi && dash == '-') {
      inside = lo <= a && a < hi;
    } else if (inside && line.rfind("VmFlags:", 0) == 0) {
      return line;
    }
  }
  return "";
}

bool has_flag(const std::string& vm_flags, const std::string& flag) {
  std::istringstream tokens(vm_flags);
  std::string token;
  while (tokens >> token)
    if (token == flag) return true;
  return false;
}

TEST(LargeVector, BlockOfTwoMiBOrMoreIsAdvisedHugePage) {
  std::ifstream mode_file("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  if (!std::getline(mode_file, mode) || mode.find("[never]") != std::string::npos)
    GTEST_SKIP() << "transparent huge pages unavailable (mode: '" << mode << "')";

  LargeVector<std::uint8_t> big(4 * kHugePageBytes, 1);
  const auto begin = reinterpret_cast<std::uintptr_t>(big.data());
  const std::uintptr_t aligned = (begin + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const std::string flags = vm_flags_of(reinterpret_cast<const void*>(aligned));
  ASSERT_FALSE(flags.empty()) << "no smaps mapping holds the block";
  EXPECT_TRUE(has_flag(flags, "hg")) << flags;
}

TEST(LargeVector, OnlyBlocksOfTwoMiBOrMoreAreAdvised) {
  const std::uint64_t before = huge_page_advice_counter().load();
  {
    LargeVector<std::uint8_t> small(kHugePageBytes - 1, 0);
    LargeVector<std::uint32_t> tiny(16, 0);
  }
  EXPECT_EQ(huge_page_advice_counter().load(), before);
  { LargeVector<std::uint8_t> big(4 * kHugePageBytes, 0); }
  EXPECT_EQ(huge_page_advice_counter().load(), before + 1);
}

TEST(LargeVector, BehavesLikeStdVector) {
  // 40 bytes (never advised) and 4 MiB (advised).
  for (const std::size_t n : {std::size_t{10}, std::size_t{1} << 20}) {
    std::vector<std::uint32_t> ref(n);
    std::iota(ref.begin(), ref.end(), 7u);
    const auto same = [&ref](const LargeVector<std::uint32_t>& v) {
      return std::equal(v.begin(), v.end(), ref.begin(), ref.end());
    };
    LargeVector<std::uint32_t> v(ref.begin(), ref.end());
    EXPECT_TRUE(same(v));

    const LargeVector<std::uint32_t> copy = v;
    EXPECT_TRUE(same(copy));
    EXPECT_NE(copy.data(), v.data());

    const std::uint32_t* storage = v.data();
    LargeVector<std::uint32_t> moved = std::move(v);
    EXPECT_EQ(moved.data(), storage);
    EXPECT_TRUE(same(moved));

    LargeVector<std::uint32_t> other(3, 9);
    moved.swap(other);
    EXPECT_EQ(other.data(), storage);
    EXPECT_EQ(moved, (LargeVector<std::uint32_t>(3, 9)));

    other.resize(2 * n, 5);
    ref.resize(2 * n, 5);
    EXPECT_TRUE(same(other));
    other.resize(n / 2);
    ref.resize(n / 2);
    other.shrink_to_fit();
    EXPECT_EQ(other.capacity(), other.size());
    EXPECT_TRUE(same(other));
  }
}

TEST(GraphBuilder, BuildTwiceFromLvalueThenMoveFromRvalue) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Graph first = b.build();   // lvalue build copies: builder reusable
  const Graph second = b.build();
  EXPECT_EQ(first.num_edges(), second.num_edges());
  const Graph last = std::move(b).build();  // rvalue build adopts the edges
  EXPECT_EQ(last.num_edges(), 2u);
  EXPECT_EQ(last.degree(1), 2u);
}

TEST(Algorithms, BfsDistancesOnPath) {
  const Graph g = path_graph(5);
  const auto d = bfs_distances(g, 0);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
}

TEST(Algorithms, BfsUnreachable) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_FALSE(is_connected(g));
  const auto comps = connected_components(g);
  EXPECT_EQ(comps.count, 2u);
  EXPECT_EQ(comps.id[0], comps.id[1]);
  EXPECT_NE(comps.id[0], comps.id[2]);
}

TEST(Algorithms, DiameterKnownValues) {
  EXPECT_EQ(diameter(path_graph(6)), 5u);
  EXPECT_EQ(diameter(cycle_graph(8)), 4u);
  EXPECT_EQ(diameter(complete_graph(5)), 1u);
  EXPECT_EQ(diameter(hypercube(4)), 4u);
  EXPECT_EQ(diameter(petersen_graph()), 2u);
}

TEST(Algorithms, EccentricityOfPathEnd) {
  EXPECT_EQ(eccentricity(path_graph(7), 0), 6u);
  EXPECT_EQ(eccentricity(path_graph(7), 3), 3u);
}

TEST(Algorithms, DegreeSequenceSorted) {
  const Graph g = star_graph(5);
  const auto seq = degree_sequence(g);
  EXPECT_EQ(seq[0], 4u);
  for (std::size_t i = 1; i < seq.size(); ++i) EXPECT_EQ(seq[i], 1u);
}

TEST(Io, EdgeListRoundTrip) {
  const Graph g = petersen_graph();
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph h = read_edge_list(ss);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(degree_sequence(h), degree_sequence(g));
  EXPECT_EQ(diameter(h), diameter(g));
}

TEST(Io, RejectsTruncatedInput) {
  std::stringstream ss("3 2\n0 1\n");
  EXPECT_THROW(read_edge_list(ss), std::runtime_error);
}

}  // namespace
}  // namespace ewalk
