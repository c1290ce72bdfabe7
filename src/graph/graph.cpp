#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace ewalk {

Graph Graph::from_edges(Vertex n, std::span<const Endpoints> edges) {
  return from_edges(n, EdgeList(edges.begin(), edges.end()));
}

namespace {

// What one part of the CSR build learnt about its rows [lo, hi).
struct RowPart {
  std::uint64_t slots = 0;       // slots in the part's rows (sum of degrees)
  std::uint64_t self_loops = 0;  // loops whose vertex is in the part
  std::uint32_t min_degree = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t max_degree = 0;
  bool all_even = true;
  bool out_of_range = false;     // some endpoint >= n (every part sees it)
};

// Parallel-edge census of one row whose slots ascend by edge id: c - 1 for
// every run of c copies of a neighbour v > u, and k - 1 for the 2k loop
// slots at u. Counting each edge at its min endpoint makes the per-row sums
// add up to the graph's census. A short row compares every pair of slots;
// a long one sorts its neighbours >= u in `scratch`.
std::uint64_t row_repeats(Vertex u, std::span<const Slot> row,
                          std::vector<Vertex>& scratch) {
  std::uint64_t repeats = 0;
  std::uint64_t loop_slots = 0;
  if (row.size() <= 32) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      const Vertex w = row[i].neighbor;
      bool seen = false;
      for (std::size_t j = 0; j < i; ++j) seen |= row[j].neighbor == w;
      repeats += w > u && seen;
      loop_slots += w == u;
    }
  } else {
    scratch.clear();
    for (const Slot& s : row)
      if (s.neighbor >= u) scratch.push_back(s.neighbor);
    std::sort(scratch.begin(), scratch.end());
    for (std::size_t i = 0; i < scratch.size(); ++i) {
      repeats += scratch[i] > u && i > 0 && scratch[i - 1] == scratch[i];
      loop_slots += scratch[i] == u;
    }
  }
  return loop_slots > 0 ? repeats + loop_slots / 2 - 1 : repeats;
}

}  // namespace

Graph Graph::from_edges(Vertex n, EdgeList&& edges) {
  // Slot indices (offsets_, slot_index) are 32-bit: 2m must fit. Edge ids are
  // 32-bit too, which the same bound covers with room to spare.
  if (edges.size() > std::numeric_limits<std::uint32_t>::max() / 2)
    throw std::invalid_argument(
        "Graph::from_edges: edge count overflows 32-bit slot indices (n=" +
        std::to_string(n) + ", m=" + std::to_string(edges.size()) +
        "; 2m must fit in uint32)");

  Graph g;
  g.n_ = n;
  g.edges_ = std::move(edges);
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  const std::size_t m = g.edges_.size();
  const std::span<const Endpoints> list(g.edges_);
  std::uint32_t* const offsets = g.offsets_.data();

  // Part p owns rows [lo, hi) and streams the whole edge list in id order,
  // touching only its own rows, so every row fills in ascending edge id
  // whatever the split. Pass 1 counts the part's degrees into offsets_[v]
  // and turns them into part-local starts.
  const std::vector<RowPart> parts = for_each_part(m, [&](Part part) {
    const auto lo = static_cast<Vertex>(part.begin(n));
    const auto hi = static_cast<Vertex>(part.end(n));
    RowPart out;
    for (const auto& [u, v] : list) {
      out.out_of_range |= u >= n || v >= n;
      if (u - lo < hi - lo) {
        ++offsets[u];
        out.self_loops += u == v;
      }
      if (v - lo < hi - lo) ++offsets[v];
    }
    for (Vertex v = lo; v < hi; ++v) {
      const std::uint32_t d = offsets[v];
      out.min_degree = std::min(out.min_degree, d);
      out.max_degree = std::max(out.max_degree, d);
      out.all_even &= d % 2 == 0;
      offsets[v] = static_cast<std::uint32_t>(out.slots);
      out.slots += d;
    }
    return out;
  });

  std::vector<std::uint32_t> base(parts.size());
  std::uint64_t total = 0;
  g.min_degree_ = n == 0 ? 0 : std::numeric_limits<std::uint32_t>::max();
  for (std::size_t p = 0; p < parts.size(); ++p) {
    if (parts[p].out_of_range)
      throw std::invalid_argument("Graph::from_edges: endpoint out of range");
    base[p] = static_cast<std::uint32_t>(total);
    total += parts[p].slots;
    g.self_loops_ += parts[p].self_loops;
    g.min_degree_ = std::min(g.min_degree_, parts[p].min_degree);
    g.max_degree_ = std::max(g.max_degree_, parts[p].max_degree);
    g.all_even_ = g.all_even_ && parts[p].all_even;
  }
  g.offsets_[n] = static_cast<std::uint32_t>(total);

  // Pass 2 fills the part's slots using offsets_[v] as v's cursor (a
  // self-loop writes its two slots back to back), counts each finished
  // row's repeats, and shifts the cursors, which now hold each row's end,
  // back to row starts. A part reads and writes offsets_[lo, hi) only.
  g.slots_.resize(2 * m);
  Slot* const slots = g.slots_.data();
  const std::vector<std::uint64_t> repeats = for_each_part(m, [&](Part part) {
    const auto lo = static_cast<Vertex>(part.begin(n));
    const auto hi = static_cast<Vertex>(part.end(n));
    const std::uint32_t start = base[part.index];
    for (Vertex v = lo; v < hi; ++v) offsets[v] += start;
    for (EdgeId e = 0; e < list.size(); ++e) {
      const auto [u, v] = list[e];
      if (u - lo < hi - lo) slots[offsets[u]++] = Slot{v, e};
      if (v - lo < hi - lo) slots[offsets[v]++] = Slot{u, e};
    }
    std::uint64_t count = 0;
    std::vector<Vertex> scratch;
    scratch.reserve(g.max_degree_);
    std::uint32_t row_start = start;
    for (Vertex v = lo; v < hi; ++v) {
      count += row_repeats(v, {slots + row_start, offsets[v] - row_start}, scratch);
      row_start = offsets[v];
    }
    for (Vertex v = hi; v > lo + 1; --v) offsets[v - 1] = offsets[v - 2];
    if (lo < hi) offsets[lo] = start;
    return count;
  });
  for (const std::uint64_t count : repeats) g.parallel_edges_ += count;
  return g;
}

EdgeId GraphBuilder::add_edge(Vertex u, Vertex v) {
  if (u >= n_ || v >= n_) throw std::invalid_argument("GraphBuilder::add_edge: endpoint out of range");
  edges_.push_back(Endpoints{u, v});
  return static_cast<EdgeId>(edges_.size() - 1);
}

}  // namespace ewalk
