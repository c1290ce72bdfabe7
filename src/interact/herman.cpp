#include "interact/herman.hpp"

#include <stdexcept>

namespace ewalk {

namespace {

// Derives the clockwise orientation of a cycle by walking it once from
// vertex 0, leaving each vertex via the edge it did not arrive on (edge ids
// disambiguate parallel edges). Throws unless g is a single cycle on all n
// vertices.
struct RingOrientation {
  std::vector<Vertex> successor;
  std::vector<EdgeId> successor_edge;
};

RingOrientation derive_ring(const Graph& g) {
  const Vertex n = g.num_vertices();
  if (n < 3) throw std::invalid_argument("HermanRing: need a cycle with n >= 3");
  for (Vertex v = 0; v < n; ++v)
    if (g.degree(v) != 2)
      throw std::invalid_argument("HermanRing: graph is not 2-regular");

  RingOrientation ring;
  ring.successor.assign(n, 0);
  ring.successor_edge.assign(n, 0);
  Vertex cur = 0;
  Slot out = g.slot(0, 0);
  Vertex count = 0;
  for (;;) {
    ring.successor[cur] = out.neighbor;
    ring.successor_edge[cur] = out.edge;
    ++count;
    const Vertex nxt = out.neighbor;
    if (nxt == 0) break;
    if (count > n)
      throw std::invalid_argument("HermanRing: graph is not a single cycle");
    const Slot a = g.slot(nxt, 0);
    const Slot b = g.slot(nxt, 1);
    if (a.edge == b.edge)  // self-loop occupies both slots: not a cycle
      throw std::invalid_argument("HermanRing: graph is not a single cycle");
    out = (a.edge == out.edge) ? b : a;
    cur = nxt;
  }
  if (count != n)
    throw std::invalid_argument("HermanRing: graph is not a single cycle");
  return ring;
}

}  // namespace

HermanRing::HermanRing(const Graph& g, std::vector<Vertex> starts)
    : TokenProcess(g, starts, g.num_edges()) {
  if (starts.size() % 2 == 0)
    throw std::invalid_argument(
        "HermanRing: token count must be odd (parity invariant)");
  RingOrientation ring = derive_ring(g);
  successor_ = std::move(ring.successor);
  successor_edge_ = std::move(ring.successor_edge);
}

void HermanRing::step(Rng& rng) {
  const TokenSystem::TokenId t = begin_turn();
  const Vertex v = tokens_.position(t);
  if (rng.bernoulli(0.5)) {
    // Token keeps its place this turn.
    cover_.visit_vertex(v, steps_);
  } else {
    cover_.visit_edge(successor_edge_[v], steps_);
    const TokenSystem::TokenId other = land(t, successor_[v]);
    if (other != TokenSystem::kNoToken) {
      // Pairwise annihilation: mover first, then the occupant.
      tokens_.kill(t, steps_);
      tokens_.kill(other, steps_);
      ++annihilations_;
    }
  }
  end_turn(t);
}

}  // namespace ewalk
