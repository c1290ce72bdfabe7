#include "graph/transforms.hpp"

#include <queue>
#include <utility>
#include <stdexcept>

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
