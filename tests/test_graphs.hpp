// Fixture graphs shared by more than one test suite.
#pragma once

#include "graph/graph.hpp"

namespace ewalk {

// A connected multigraph with self-loops and parallel edges: the cases where
// blue-eviction order is subtle (a self-loop occupies two slots of the same
// vertex; parallel edges are distinct edge ids in neighbouring slots).
inline Graph messy_multigraph() {
  const Vertex n = 60;
  GraphBuilder b(n);
  for (Vertex v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);  // base cycle
  for (Vertex v = 0; v < n; v += 5) b.add_edge(v, (v + 1) % n);  // parallel
  for (Vertex v = 0; v < n; v += 7) b.add_edge(v, v);            // self-loop
  for (Vertex v = 0; v < n; v += 3) b.add_edge(v, (v + 13) % n);  // chords
  return b.build();
}

}  // namespace ewalk
