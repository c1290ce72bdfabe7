#include "graph/dynamic_graph.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

namespace ewalk {

DynamicGraph::DynamicGraph(Vertex n) : n_(n), adjacency_(n) {}

DynamicGraph DynamicGraph::from_graph(const Graph& g) {
  DynamicGraph dyn(g.num_vertices());
  dyn.adjacency_.assign(g.num_vertices(), {});
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Endpoints ep = g.endpoints(e);
    const EdgeId id = dyn.insert_edge(ep.u, ep.v);
    (void)id;  // ids come out 0..m-1 because insertion is in edge-id order
  }
  // The seeded edges are the epoch-0 baseline, not mutations: readers
  // initialise from the adjacency, then sync from an empty journal.
  dyn.journal_.clear();
  return dyn;
}

EdgeId DynamicGraph::insert_edge(Vertex u, Vertex v) {
  if (u >= n_ || v >= n_)
    throw std::invalid_argument("DynamicGraph::insert_edge: endpoint out of range");
  if (edges_.size() >= std::numeric_limits<EdgeId>::max())
    throw std::invalid_argument("DynamicGraph::insert_edge: edge id space exhausted");
  const EdgeId e = static_cast<EdgeId>(edges_.size());
  EdgeRecord rec;
  rec.endpoints = Endpoints{u, v};
  rec.pos_u = static_cast<std::uint32_t>(adjacency_[u].size());
  adjacency_[u].push_back(Slot{v, e});
  // A self-loop occupies two adjacent slots of its vertex, matching the
  // CSR's convention so degree() agrees between backends.
  rec.pos_v = static_cast<std::uint32_t>(adjacency_[v].size());
  adjacency_[v].push_back(Slot{u, e});
  rec.alive = true;
  edges_.push_back(rec);
  ++alive_edges_;
  journal_.push_back(GraphMutation{MutationKind::kInsert, e, rec.endpoints});
  return e;
}

void DynamicGraph::remove_slot(Vertex v, std::uint32_t pos) {
  auto& list = adjacency_[v];
  const std::uint32_t last = static_cast<std::uint32_t>(list.size() - 1);
  if (pos != last) {
    const Slot moved = list[last];
    list[pos] = moved;
    EdgeRecord& mrec = edges_[moved.edge];
    // A moved self-loop slot could match either position; patch the one
    // that pointed at `last`. Checking pos_u first keeps the pair
    // (pos_u, pos_v) consistent when both slots of a self-loop move.
    if (mrec.endpoints.u == v && mrec.pos_u == last) {
      mrec.pos_u = pos;
    } else {
      mrec.pos_v = pos;
    }
  }
  list.pop_back();
}

void DynamicGraph::erase_edge(EdgeId e) {
  if (e >= edges_.size() || !edges_[e].alive)
    throw std::invalid_argument("DynamicGraph::erase_edge: edge not alive");
  EdgeRecord& rec = edges_[e];
  const Endpoints ep = rec.endpoints;
  if (ep.u == ep.v) {
    // Self-loop: both slots live in the same list. Remove the larger
    // position first so the smaller one is still valid afterwards.
    const std::uint32_t hi = rec.pos_u > rec.pos_v ? rec.pos_u : rec.pos_v;
    const std::uint32_t lo = rec.pos_u > rec.pos_v ? rec.pos_v : rec.pos_u;
    remove_slot(ep.u, hi);
    remove_slot(ep.u, lo);
  } else {
    remove_slot(ep.u, rec.pos_u);
    remove_slot(ep.v, rec.pos_v);
  }
  rec.alive = false;
  --alive_edges_;
  journal_.push_back(GraphMutation{MutationKind::kErase, e, ep});
}

EdgeList DynamicGraph::surviving_edges() const {
  EdgeList out;
  out.reserve(alive_edges_);
  for (EdgeId e = 0; e < edges_.size(); ++e)
    if (edges_[e].alive) out.push_back(edges_[e].endpoints);
  return out;
}

Graph DynamicGraph::freeze() const {
  return Graph::from_edges(n_, surviving_edges());
}

}  // namespace ewalk
