// Visit-all-r-times measurement for the paper's eq. (4) argument.
//
// Once every vertex v has been visited d(v) times by the embedded red walk,
// all edges are explored, so C_E = O(m + T(r)), where T(r) is the time for
// a SRW to visit every vertex r times. The paper bounds T(r) by the blanket
// time of Ding–Lee–Peres (Theorem 1.1 of [7]: E τ_bl(δ) = O(C_V(SRW))).
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace ewalk {

/// Time for a SRW to visit every vertex at least `count` times (the T(r) of
/// the paper's eq. (4) argument). Returns max_steps when not reached.
std::uint64_t measure_visit_all_r_times(const Graph& g, Vertex start,
                                        std::uint32_t count, Rng& rng,
                                        std::uint64_t max_steps);

}  // namespace ewalk
