// Graph generators.
//
// The paper's experiments (Section 5, Figure 1) use random r-regular graphs
// produced by the Steger–Wormald algorithm (via NetworkX); we implement that
// algorithm directly, plus the pairing/configuration model, a guaranteed
// even-degree generator (union of random Hamiltonian cycles), and the
// deterministic families used throughout the paper and its related work:
// hypercube (edge-cover discussion, Section 1), toroidal grid and random
// geometric graphs (Avin–Krishnamachari RWC baseline), lollipop/barbell
// (classic SRW worst cases, used in tests), and assorted small graphs.
//
// Every random generator takes an explicit Rng for reproducibility.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace ewalk {

// ---- Generation-path instrumentation ------------------------------------

/// Process-wide counters for the random-regular generation hot path. The
/// connected variants decide retries with a union-find over the edge list
/// (see docs/ARCHITECTURE.md, "generation ↔ connectivity contract"), so a
/// correct build shows zero full-BFS connectivity checks attributable to
/// generation — tests/generators_test.cpp and the fig1 `--gen-only` bench
/// mode pin that by snapshotting these together with
/// connectivity_bfs_calls() (graph/algorithms.hpp).
struct GenerationCounters {
  std::uint64_t pairing_attempts = 0;      ///< pairing+repair passes started
  std::uint64_t pairing_connectivity_retries = 0;  ///< attempts rejected as disconnected
  std::uint64_t sw_attempts = 0;           ///< Steger–Wormald passes started
  std::uint64_t sw_connectivity_retries = 0;  ///< SW graphs rejected as disconnected
};

/// Snapshot of the generation counters (thread-safe, monotone since the
/// last reset_generation_counters()).
GenerationCounters generation_counters() noexcept;

/// Zeroes the generation counters (tests bracket generator calls with this).
void reset_generation_counters() noexcept;

// ---- Deterministic families -------------------------------------------

/// Cycle C_n (n >= 3): connected, 2-regular, girth n.
Graph cycle_graph(Vertex n);

/// Path P_n on n vertices (n-1 edges).
Graph path_graph(Vertex n);

/// Complete graph K_n.
Graph complete_graph(Vertex n);

/// Complete bipartite K_{a,b}.
Graph complete_bipartite(Vertex a, Vertex b);

/// The Petersen graph: 3-regular, girth 5, n=10.
Graph petersen_graph();

/// Hypercube H_r on n = 2^r vertices; r-regular, bipartite.
Graph hypercube(std::uint32_t r);

/// 2-D torus (cyclic grid) of width w, height h; 4-regular for w,h >= 3.
Graph torus_2d(Vertex w, Vertex h);

/// 2-D open grid (no wraparound).
Graph grid_2d(Vertex w, Vertex h);

/// Star K_{1,n-1}.
Graph star_graph(Vertex n);

/// Lollipop: K_k clique attached to a path of `path_len` extra vertices.
/// The classic Θ(n³) hitting-time example for the SRW.
Graph lollipop(Vertex clique_size, Vertex path_len);

/// Barbell: two K_k cliques joined by a path of `path_len` extra vertices.
Graph barbell(Vertex clique_size, Vertex path_len);

/// Circulant graph C_n(offsets): vertex i adjacent to i±o for each offset o.
/// With distinct offsets 0 < o < n/2 the graph is 2|offsets|-regular (even
/// degree) — a convenient low-girth even-degree expander-ish family.
Graph circulant(Vertex n, const std::vector<std::uint32_t>& offsets);

/// Complete binary tree with `levels` levels (n = 2^levels - 1).
Graph binary_tree(std::uint32_t levels);

/// Margulis-type expander on Z_k x Z_k (n = k^2): a *deterministic*
/// 8-regular (even degree!) expander built from the four affine maps
/// (x+y, y), (x, y+x), (x+y+1, y), (x, y+x+1) and their inverses. The
/// transition-matrix lambda2 of this map set measures ~0.9 uniformly in k
/// (the exact Gabber-Galil constant 5*sqrt(2)/8 applies to their specific
/// map set). Returned as a multigraph (loops/multi-edges occur along the
/// axes), preserving 8-regularity with loops counted twice.
Graph margulis_expander(Vertex k);

// ---- Random families ----------------------------------------------------

/// Random r-regular simple graph via the Steger–Wormald algorithm — the
/// generator the paper used (through NetworkX). Requires n*r even, r < n.
/// Restarts internally until a simple r-regular graph is produced.
Graph random_regular(Vertex n, std::uint32_t r, Rng& rng);

/// Like random_regular but additionally retries until connected (for r >= 3
/// the graph is connected whp, so this rarely loops). Connectivity is
/// maintained incrementally by a union-find *during* stub matching — the
/// keep/retry decision is known the moment the last edge lands, with no BFS
/// and no CSR build for rejected attempts.
Graph random_regular_connected(Vertex n, std::uint32_t r, Rng& rng);

/// Random r-regular simple graph via one pairing-model pass with edge-swap
/// repair of collisions: stubs are matched in one shuffled pass, then each
/// defective edge (self-loop or duplicate) is repaired by a random 2-swap
/// with a sound edge, accepted only when both replacement edges are new
/// non-loops. Expected O(n*r) end to end — the expected defect count after
/// the pairing pass is Θ(r²), independent of n — where the restart-based
/// Steger–Wormald generator above resamples whole attempts and becomes the
/// dominant cost of large-n sweeps. Trade-off: the swap repair leaves the
/// distribution asymptotically uniform but not exactly the restart
/// distribution at finite n; random_regular stays the reference generator
/// and tests/generators_test.cpp cross-validates degree invariants and
/// cover-time samples between the two. Requires n*r even, r < n.
Graph random_regular_pairing(Vertex n, std::uint32_t r, Rng& rng);

/// Like random_regular_pairing but additionally retries until connected
/// (r >= 3: connected whp, so this rarely loops). The decision comes from a
/// single union-find pass over the repaired edge list (edge_list_connected)
/// the moment repair finishes — the swap repair can remove edges, so the
/// incremental-union shortcut of the Steger–Wormald path would over-report
/// connectivity here; the edge-list pass is exact, still O(m α(n)), and
/// still runs before any CSR is built, so rejected attempts never pay a
/// Graph construction or a BFS.
Graph random_regular_pairing_connected(Vertex n, std::uint32_t r, Rng& rng);

/// Configuration (pairing) model over a fixed degree sequence. When `simple`
/// is true, resamples until there are no loops/multi-edges (suitable for
/// small maximum degree only — retry probability decays with Σd²);
/// otherwise returns the multigraph from a single pairing.
Graph configuration_model(const std::vector<std::uint32_t>& degrees, Rng& rng,
                          bool simple);

/// Union of k independently-drawn random Hamiltonian cycles on n vertices:
/// a 2k-regular even-degree multigraph, connected by construction. When
/// `simple` is true, cycles are resampled until the union is simple
/// (practical for k small relative to n). These are expanders whp for k>=2.
Graph hamiltonian_cycle_union(Vertex n, std::uint32_t k, Rng& rng, bool simple = true);

/// Erdős–Rényi G(n, p).
Graph erdos_renyi(Vertex n, double p, Rng& rng);

/// Random geometric graph: n points uniform in the unit square, edges
/// between pairs at Euclidean distance <= radius.
Graph random_geometric(Vertex n, double radius, Rng& rng);

}  // namespace ewalk
