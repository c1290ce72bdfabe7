#include "graph/transforms.hpp"

#include <queue>
#include <utility>
#include <stdexcept>
#include <unordered_set>

namespace ewalk {

ContractionResult contract_set(const Graph& g, std::span<const Vertex> set) {
  if (set.empty()) throw std::invalid_argument("contract_set: empty set");
  std::vector<bool> in_set(g.num_vertices(), false);
  for (const Vertex v : set) {
    if (v >= g.num_vertices()) throw std::invalid_argument("contract_set: vertex out of range");
    if (in_set[v]) throw std::invalid_argument("contract_set: duplicate vertex in set");
    in_set[v] = true;
  }

  ContractionResult out;
  out.vertex_map.assign(g.num_vertices(), 0);
  // γ takes index 0; remaining vertices keep their relative order after it.
  out.contracted = 0;
  Vertex next = 1;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    out.vertex_map[v] = in_set[v] ? 0 : next++;

  EdgeList edges;
  edges.reserve(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    edges.push_back(Endpoints{out.vertex_map[u], out.vertex_map[v]});
  }
  out.graph = Graph::from_edges(next, std::move(edges));
  return out;
}

SubdivisionResult subdivide_edges(const Graph& g, std::span<const EdgeId> chosen) {
  std::unordered_set<EdgeId> chosen_set;
  for (const EdgeId e : chosen) {
    if (e >= g.num_edges()) throw std::invalid_argument("subdivide_edges: edge out of range");
    if (!chosen_set.insert(e).second)
      throw std::invalid_argument("subdivide_edges: duplicate edge id");
  }

  SubdivisionResult out;
  EdgeList edges;
  edges.reserve(g.num_edges() + chosen.size());
  Vertex next = g.num_vertices();
  // Untouched edges first (preserving relative order), then the two halves
  // of each subdivided edge, in the order the edges were given.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!chosen_set.count(e)) edges.push_back(g.endpoints(e));
  }
  out.mid_vertices.reserve(chosen.size());
  for (const EdgeId e : chosen) {
    const auto [u, v] = g.endpoints(e);
    const Vertex mid = next++;
    out.mid_vertices.push_back(mid);
    edges.push_back(Endpoints{u, mid});
    edges.push_back(Endpoints{mid, v});
  }
  out.graph = Graph::from_edges(next, std::move(edges));
  return out;
}

Graph add_laziness_loops(const Graph& g) {
  EdgeList edges;
  edges.reserve(g.num_edges() * 2);
  for (EdgeId e = 0; e < g.num_edges(); ++e) edges.push_back(g.endpoints(e));
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::uint32_t d = g.degree(v);
    if (d == 0 || d % 2 != 0)
      throw std::invalid_argument("add_laziness_loops: all degrees must be even and positive");
    for (std::uint32_t i = 0; i < d / 2; ++i) edges.push_back(Endpoints{v, v});
  }
  return Graph::from_edges(g.num_vertices(), std::move(edges));
}

Graph double_edges(const Graph& g) {
  EdgeList edges;
  edges.reserve(2 * g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    edges.push_back(g.endpoints(e));
    edges.push_back(g.endpoints(e));
  }
  return Graph::from_edges(g.num_vertices(), std::move(edges));
}

Graph evenize_by_matching(const Graph& g) {
  EdgeList edges;
  edges.reserve(g.num_edges() + g.num_vertices());
  for (EdgeId e = 0; e < g.num_edges(); ++e) edges.push_back(g.endpoints(e));

  std::vector<bool> odd(g.num_vertices(), false);
  std::vector<Vertex> odd_list;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) % 2 != 0) {
      odd[v] = true;
      odd_list.push_back(v);
    }
  }

  // Greedy nearest-neighbour pairing: repeatedly BFS from an unpaired odd
  // vertex to its closest unpaired odd partner and duplicate the path.
  std::vector<Vertex> parent(g.num_vertices());
  std::vector<std::uint8_t> seen(g.num_vertices());
  for (const Vertex source : odd_list) {
    if (!odd[source]) continue;  // already paired
    odd[source] = false;
    std::fill(seen.begin(), seen.end(), 0);
    std::queue<Vertex> q;
    seen[source] = 1;
    q.push(source);
    Vertex match = source;
    while (!q.empty()) {
      const Vertex u = q.front();
      q.pop();
      if (u != source && odd[u]) {
        match = u;
        break;
      }
      for (const Slot& s : g.slots(u)) {
        if (!seen[s.neighbor]) {
          seen[s.neighbor] = 1;
          parent[s.neighbor] = u;
          q.push(s.neighbor);
        }
      }
    }
    if (match == source)
      throw std::invalid_argument("evenize_by_matching: odd vertex with no reachable partner");
    odd[match] = false;
    for (Vertex u = match; u != source; u = parent[u])
      edges.push_back(Endpoints{parent[u], u});
  }
  return Graph::from_edges(g.num_vertices(), std::move(edges));
}

}  // namespace ewalk
