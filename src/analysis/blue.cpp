#include "analysis/blue.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace ewalk {

BlueReport analyze_blue(const Graph& g, std::span<const std::uint8_t> edge_visited,
                        std::span<const std::uint32_t> visit_counts) {
  if (edge_visited.size() != g.num_edges() || visit_counts.size() != g.num_vertices())
    throw std::invalid_argument("analyze_blue: array size mismatch");

  BlueReport report;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (visit_counts[v] == 0) ++report.unvisited_vertices_total;

  std::vector<std::uint32_t> blue_degree(g.num_vertices(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (edge_visited[e]) continue;
    ++report.blue_edges_total;
    const auto [u, v] = g.endpoints(e);
    blue_degree[u] += (u == v) ? 2 : 1;
    if (u != v) blue_degree[v] += 1;
  }

  std::vector<bool> claimed(g.num_vertices(), false);
  std::vector<Vertex> members;
  std::queue<Vertex> q;
  for (Vertex start = 0; start < g.num_vertices(); ++start) {
    if (claimed[start] || blue_degree[start] == 0) continue;
    members.clear();
    claimed[start] = true;
    q.push(start);
    std::uint64_t degree_sum = 0;
    while (!q.empty()) {
      const Vertex u = q.front();
      q.pop();
      members.push_back(u);
      degree_sum += blue_degree[u];
      for (const Slot& s : g.slots(u)) {
        if (edge_visited[s.edge]) continue;
        if (!claimed[s.neighbor]) {
          claimed[s.neighbor] = true;
          q.push(s.neighbor);
        }
      }
    }

    BlueComponent c;
    c.num_vertices = static_cast<std::uint32_t>(members.size());
    c.num_edges = static_cast<std::uint32_t>(degree_sum / 2);
    c.representative = *std::min_element(members.begin(), members.end());
    c.all_degrees_even = true;
    std::uint32_t max_degree_vertex = members.front();
    std::uint32_t leaves = 0;
    for (const Vertex u : members) {
      if (blue_degree[u] % 2 != 0) c.all_degrees_even = false;
      if (visit_counts[u] == 0) c.contains_unvisited_vertex = true;
      if (blue_degree[u] == 1) ++leaves;
      if (blue_degree[u] > blue_degree[max_degree_vertex]) max_degree_vertex = u;
    }
    // Star: center of degree k == num_edges, k >= 2, all others leaves.
    if (c.num_vertices >= 3 && blue_degree[max_degree_vertex] == c.num_edges &&
        leaves == c.num_vertices - 1) {
      c.is_star = true;
      c.star_center = max_degree_vertex;
      if (visit_counts[max_degree_vertex] == 0) ++report.isolated_unvisited_stars;
    }
    report.components.push_back(c);
  }
  return report;
}

}  // namespace ewalk
