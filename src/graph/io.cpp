#include "graph/io.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ewalk {

void write_edge_list(const Graph& g, std::ostream& out) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    out << u << ' ' << v << '\n';
  }
}

Graph read_edge_list(std::istream& in) {
  Vertex n = 0;
  EdgeId m = 0;
  if (!(in >> n >> m)) throw std::runtime_error("read_edge_list: bad header");
  EdgeList edges;
  edges.reserve(m);
  for (EdgeId e = 0; e < m; ++e) {
    Vertex u = 0, v = 0;
    if (!(in >> u >> v)) throw std::runtime_error("read_edge_list: truncated edge list");
    edges.push_back(Endpoints{u, v});
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_edge_list_file: cannot open " + path);
  return read_edge_list(in);
}

}  // namespace ewalk
