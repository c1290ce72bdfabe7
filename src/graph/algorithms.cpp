#include "graph/algorithms.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/union_find.hpp"
#include "util/huge_pages.hpp"
#include "util/thread_pool.hpp"

namespace ewalk {

namespace {

std::atomic<std::uint64_t> g_connectivity_bfs_calls{0};

// bfs_distances_into over any vector type for the scratch.
template <typename Dist, typename Frontier>
std::uint32_t bfs_into(const Graph& g, Vertex source, Dist& dist,
                       Frontier& frontier) {
  dist.assign(g.num_vertices(), kUnreachable);
  frontier.clear();
  dist[source] = 0;
  frontier.push_back(source);
  // The frontier vector doubles as the queue: head chases the tail, visited
  // vertices stay in place, so no deque node churn and the storage persists
  // across calls.
  std::size_t head = 0;
  while (head < frontier.size()) {
    const Vertex u = frontier[head++];
    for (const Slot& s : g.slots(u)) {
      if (dist[s.neighbor] == kUnreachable) {
        dist[s.neighbor] = dist[u] + 1;
        frontier.push_back(s.neighbor);
      }
    }
  }
  return static_cast<std::uint32_t>(frontier.size());
}

}  // namespace

std::uint64_t connectivity_bfs_calls() noexcept {
  return g_connectivity_bfs_calls.load(std::memory_order_relaxed);
}

std::uint32_t bfs_distances_into(const Graph& g, Vertex source,
                                 std::vector<std::uint32_t>& dist,
                                 std::vector<Vertex>& frontier) {
  return bfs_into(g, source, dist, frontier);
}

std::vector<std::uint32_t> bfs_distances(const Graph& g, Vertex source) {
  std::vector<std::uint32_t> dist;
  std::vector<Vertex> frontier;
  bfs_distances_into(g, source, dist, frontier);
  return dist;
}

bool is_connected(const Graph& g) {
  g_connectivity_bfs_calls.fetch_add(1, std::memory_order_relaxed);
  if (g.num_vertices() == 0) return true;
  // Scratch that grows with the graph is huge-page backed, like the graph's
  // own arrays: at n = 7e6 fresh 4 KiB pages for it cost about 14k faults.
  LargeVector<std::uint32_t> dist;
  LargeVector<Vertex> frontier;
  frontier.reserve(g.num_vertices());
  return bfs_into(g, 0, dist, frontier) == g.num_vertices();
}

namespace {

// One link of the union-find over `parent`: the larger of the two roots
// goes under the smaller, so parent pointers only ever decrease and the
// forest stays acyclic under any interleaving. Shared parts access
// `parent` atomically and link by CAS, so a link that succeeds always
// joins two distinct trees; a lone part uses plain accesses. Returns
// whether this call linked.
template <bool kShared>
bool link(Vertex* parent, Vertex a, Vertex b) noexcept {
  const auto load = [parent](Vertex v) {
    if constexpr (kShared)
      return std::atomic_ref<Vertex>(parent[v]).load(std::memory_order_relaxed);
    return parent[v];
  };
  // Root of v, halving the path on the way: any ancestor is a valid parent.
  const auto find = [&](Vertex v) {
    for (;;) {
      const Vertex p = load(v);
      if (p == v) return v;
      const Vertex grand = load(p);
      if constexpr (kShared)
        std::atomic_ref<Vertex>(parent[v]).store(grand, std::memory_order_relaxed);
      else
        parent[v] = grand;
      v = grand;
    }
  };
  for (;;) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (a < b) std::swap(a, b);
    if constexpr (!kShared) {
      parent[a] = b;
      return true;
    }
    Vertex root = a;
    if (std::atomic_ref<Vertex>(parent[a]).compare_exchange_strong(
            root, b, std::memory_order_relaxed))
      return true;
  }
}

}  // namespace

bool edge_list_connected(Vertex n, std::span<const Endpoints> edges) {
  if (n <= 1) return true;
  LargeVector<Vertex> parent(n);
  std::iota(parent.begin(), parent.end(), Vertex{0});
  // Connected iff exactly n - 1 links succeed, whichever part made them.
  const std::vector<std::uint64_t> links =
      for_each_part(edges.size(), [&](Part part) {
        std::uint64_t count = 0;
        const std::size_t end = part.end(edges.size());
        if (part.count > 1) {
          for (std::size_t i = part.begin(edges.size()); i < end; ++i)
            count += link<true>(parent.data(), edges[i].u, edges[i].v);
          return count;
        }
        for (std::size_t i = 0; i < end && count < n - 1; ++i)
          count += link<false>(parent.data(), edges[i].u, edges[i].v);
        return count;
      });
  std::uint64_t total = 0;
  for (const std::uint64_t count : links) total += count;
  return total == n - 1;
}

Components connected_components(const Graph& g) {
  Components c;
  c.id.assign(g.num_vertices(), kUnreachable);
  std::vector<Vertex> frontier;
  for (Vertex start = 0; start < g.num_vertices(); ++start) {
    if (c.id[start] != kUnreachable) continue;
    c.id[start] = c.count;
    frontier.clear();
    frontier.push_back(start);
    std::size_t head = 0;
    while (head < frontier.size()) {
      const Vertex u = frontier[head++];
      for (const Slot& s : g.slots(u)) {
        if (c.id[s.neighbor] == kUnreachable) {
          c.id[s.neighbor] = c.count;
          frontier.push_back(s.neighbor);
        }
      }
    }
    ++c.count;
  }
  return c;
}

std::uint32_t eccentricity(const Graph& g, Vertex source) {
  const auto dist = bfs_distances(g, source);
  std::uint32_t ecc = 0;
  for (std::uint32_t d : dist) {
    if (d == kUnreachable) return kUnreachable;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t diameter(const Graph& g) {
  std::uint32_t diam = 0;
  std::vector<std::uint32_t> dist;
  std::vector<Vertex> frontier;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    // Shared scratch across the n sources: one allocation for the whole
    // all-pairs sweep instead of one per BFS.
    if (bfs_distances_into(g, v, dist, frontier) != g.num_vertices())
      return kUnreachable;
    for (const Vertex u : frontier) diam = std::max(diam, dist[u]);
  }
  return diam;
}

std::vector<std::uint32_t> degree_sequence(const Graph& g) {
  std::vector<std::uint32_t> seq(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) seq[v] = g.degree(v);
  std::sort(seq.begin(), seq.end(), std::greater<>());
  return seq;
}

}  // namespace ewalk
