// Graph serialisation: whitespace edge lists (one "u v" pair per line).
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace ewalk {

/// Writes "n m" header then one "u v" line per edge.
void write_edge_list(const Graph& g, std::ostream& out);

/// Parses the format produced by write_edge_list.
Graph read_edge_list(std::istream& in);
Graph read_edge_list_file(const std::string& path);

}  // namespace ewalk
