#include "graph/generators.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "graph/algorithms.hpp"
#include "graph/union_find.hpp"
#include "util/thread_pool.hpp"

namespace ewalk {

namespace {

std::uint64_t edge_key(Vertex u, Vertex v) noexcept {
  const std::uint64_t a = std::min(u, v);
  const std::uint64_t b = std::max(u, v);
  return (a << 32) | b;
}

// Generation-path counters (relaxed atomics: sweeps generate from pool
// threads concurrently; exact interleaving is irrelevant, totals are not).
std::atomic<std::uint64_t> g_pairing_attempts{0};
std::atomic<std::uint64_t> g_pairing_connectivity_retries{0};
std::atomic<std::uint64_t> g_sw_attempts{0};
std::atomic<std::uint64_t> g_sw_connectivity_retries{0};

}  // namespace

GenerationCounters generation_counters() noexcept {
  GenerationCounters c;
  c.pairing_attempts = g_pairing_attempts.load(std::memory_order_relaxed);
  c.pairing_connectivity_retries =
      g_pairing_connectivity_retries.load(std::memory_order_relaxed);
  c.sw_attempts = g_sw_attempts.load(std::memory_order_relaxed);
  c.sw_connectivity_retries =
      g_sw_connectivity_retries.load(std::memory_order_relaxed);
  return c;
}

void reset_generation_counters() noexcept {
  g_pairing_attempts.store(0, std::memory_order_relaxed);
  g_pairing_connectivity_retries.store(0, std::memory_order_relaxed);
  g_sw_attempts.store(0, std::memory_order_relaxed);
  g_sw_connectivity_retries.store(0, std::memory_order_relaxed);
}

Graph cycle_graph(Vertex n) {
  if (n < 3) throw std::invalid_argument("cycle_graph: n must be >= 3");
  GraphBuilder b(n);
  for (Vertex i = 0; i < n; ++i) b.add_edge(i, (i + 1) % n);
  return std::move(b).build();
}

Graph path_graph(Vertex n) {
  if (n == 0) throw std::invalid_argument("path_graph: n must be >= 1");
  GraphBuilder b(n);
  for (Vertex i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  return std::move(b).build();
}

Graph complete_graph(Vertex n) {
  GraphBuilder b(n);
  for (Vertex i = 0; i < n; ++i)
    for (Vertex j = i + 1; j < n; ++j) b.add_edge(i, j);
  return std::move(b).build();
}

Graph complete_bipartite(Vertex a, Vertex b_count) {
  GraphBuilder b(a + b_count);
  for (Vertex i = 0; i < a; ++i)
    for (Vertex j = 0; j < b_count; ++j) b.add_edge(i, a + j);
  return std::move(b).build();
}

Graph petersen_graph() {
  GraphBuilder b(10);
  // Outer 5-cycle, inner 5-cycle with step 2, and spokes.
  for (Vertex i = 0; i < 5; ++i) {
    b.add_edge(i, (i + 1) % 5);
    b.add_edge(5 + i, 5 + (i + 2) % 5);
    b.add_edge(i, 5 + i);
  }
  return std::move(b).build();
}

Graph hypercube(std::uint32_t r) {
  if (r >= 31) throw std::invalid_argument("hypercube: r too large");
  const Vertex n = Vertex{1} << r;
  GraphBuilder b(n);
  for (Vertex v = 0; v < n; ++v)
    for (std::uint32_t bit = 0; bit < r; ++bit) {
      const Vertex w = v ^ (Vertex{1} << bit);
      if (v < w) b.add_edge(v, w);
    }
  return std::move(b).build();
}

Graph torus_2d(Vertex w, Vertex h) {
  if (w < 3 || h < 3) throw std::invalid_argument("torus_2d: dimensions must be >= 3");
  GraphBuilder b(w * h);
  const auto id = [w](Vertex x, Vertex y) { return y * w + x; };
  for (Vertex y = 0; y < h; ++y)
    for (Vertex x = 0; x < w; ++x) {
      b.add_edge(id(x, y), id((x + 1) % w, y));
      b.add_edge(id(x, y), id(x, (y + 1) % h));
    }
  return std::move(b).build();
}

Graph grid_2d(Vertex w, Vertex h) {
  if (w == 0 || h == 0) throw std::invalid_argument("grid_2d: dimensions must be >= 1");
  GraphBuilder b(w * h);
  const auto id = [w](Vertex x, Vertex y) { return y * w + x; };
  for (Vertex y = 0; y < h; ++y)
    for (Vertex x = 0; x < w; ++x) {
      if (x + 1 < w) b.add_edge(id(x, y), id(x + 1, y));
      if (y + 1 < h) b.add_edge(id(x, y), id(x, y + 1));
    }
  return std::move(b).build();
}

Graph star_graph(Vertex n) {
  if (n < 2) throw std::invalid_argument("star_graph: n must be >= 2");
  GraphBuilder b(n);
  for (Vertex i = 1; i < n; ++i) b.add_edge(0, i);
  return std::move(b).build();
}

Graph lollipop(Vertex clique_size, Vertex path_len) {
  if (clique_size < 2) throw std::invalid_argument("lollipop: clique_size must be >= 2");
  GraphBuilder b(clique_size + path_len);
  for (Vertex i = 0; i < clique_size; ++i)
    for (Vertex j = i + 1; j < clique_size; ++j) b.add_edge(i, j);
  Vertex prev = clique_size - 1;
  for (Vertex k = 0; k < path_len; ++k) {
    b.add_edge(prev, clique_size + k);
    prev = clique_size + k;
  }
  return std::move(b).build();
}

Graph barbell(Vertex clique_size, Vertex path_len) {
  if (clique_size < 2) throw std::invalid_argument("barbell: clique_size must be >= 2");
  const Vertex n = 2 * clique_size + path_len;
  GraphBuilder b(n);
  for (Vertex i = 0; i < clique_size; ++i)
    for (Vertex j = i + 1; j < clique_size; ++j) {
      b.add_edge(i, j);
      b.add_edge(clique_size + path_len + i, clique_size + path_len + j);
    }
  Vertex prev = clique_size - 1;
  for (Vertex k = 0; k < path_len; ++k) {
    b.add_edge(prev, clique_size + k);
    prev = clique_size + k;
  }
  b.add_edge(prev, clique_size + path_len);  // attach to second clique's vertex 0
  return std::move(b).build();
}

Graph circulant(Vertex n, const std::vector<std::uint32_t>& offsets) {
  GraphBuilder b(n);
  for (const std::uint32_t o : offsets) {
    if (o == 0 || o >= n) throw std::invalid_argument("circulant: offset out of range");
    if (2 * o == n) throw std::invalid_argument("circulant: offset n/2 gives odd degree");
    for (Vertex i = 0; i < n; ++i) b.add_edge(i, (i + o) % n);
  }
  return std::move(b).build();
}

Graph binary_tree(std::uint32_t levels) {
  if (levels == 0 || levels >= 31) throw std::invalid_argument("binary_tree: bad levels");
  const Vertex n = (Vertex{1} << levels) - 1;
  GraphBuilder b(n);
  for (Vertex v = 1; v < n; ++v) b.add_edge(v, (v - 1) / 2);
  return std::move(b).build();
}

Graph margulis_expander(Vertex k) {
  if (k < 2) throw std::invalid_argument("margulis_expander: k must be >= 2");
  const Vertex n = k * k;
  GraphBuilder b(n);
  const auto id = [k](Vertex x, Vertex y) { return y * k + x; };
  for (Vertex y = 0; y < k; ++y) {
    for (Vertex x = 0; x < k; ++x) {
      const Vertex v = id(x, y);
      // The four forward maps; their inverses supply the other four slots.
      b.add_edge(v, id((x + y) % k, y));            // S1
      b.add_edge(v, id(x, (y + x) % k));            // S3
      b.add_edge(v, id((x + y + 1) % k, y));        // S5
      b.add_edge(v, id(x, (y + x + 1) % k));        // S7
    }
  }
  return std::move(b).build();
}

// ---- Steger–Wormald random regular graphs --------------------------------

namespace {

// One attempt of the Steger–Wormald stub-matching pass (the NetworkX
// `_try_creation` logic). Returns edges on success, nullopt when the attempt
// wedged (some stubs can no longer be placed) and must be restarted.
//
// When `uf` is non-null it is reset to n singletons and every accepted edge
// is unioned as it lands. Edges are only ever added within an attempt, so
// on success uf->components() == 1 is *exactly* the connectivity of the
// finished graph — the connected variant reads the retry decision off the
// union-find the moment the last edge lands, no BFS, no CSR build.
std::optional<EdgeList> steger_wormald_attempt(Vertex n, std::uint32_t r, Rng& rng,
                                               UnionFind* uf = nullptr) {
  g_sw_attempts.fetch_add(1, std::memory_order_relaxed);
  if (uf != nullptr) uf->reset(n);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) * r / 2);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(edges.capacity() * 2);

  LargeVector<Vertex> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * r);
  for (Vertex v = 0; v < n; ++v)
    for (std::uint32_t i = 0; i < r; ++i) stubs.push_back(v);

  std::vector<std::uint32_t> remaining(n, 0);
  while (!stubs.empty()) {
    rng.shuffle(std::span<Vertex>(stubs));
    std::fill(remaining.begin(), remaining.end(), 0);
    bool any_leftover = false;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      Vertex s1 = stubs[i], s2 = stubs[i + 1];
      if (s1 == s2 || seen.count(edge_key(s1, s2))) {
        ++remaining[s1];
        ++remaining[s2];
        any_leftover = true;
      } else {
        seen.insert(edge_key(s1, s2));
        edges.push_back(Endpoints{s1, s2});
        if (uf != nullptr) uf->unite(s1, s2);
      }
    }
    if (!any_leftover) break;

    // Suitability check: can any two leftover stubs still be joined?
    std::vector<Vertex> leftover_nodes;
    for (Vertex v = 0; v < n; ++v)
      if (remaining[v] > 0) leftover_nodes.push_back(v);
    bool suitable = false;
    for (std::size_t a = 0; a < leftover_nodes.size() && !suitable; ++a)
      for (std::size_t b = a + 1; b < leftover_nodes.size() && !suitable; ++b)
        if (!seen.count(edge_key(leftover_nodes[a], leftover_nodes[b]))) suitable = true;
    if (!suitable) return std::nullopt;

    stubs.clear();
    for (Vertex v = 0; v < n; ++v)
      for (std::uint32_t i = 0; i < remaining[v]; ++i) stubs.push_back(v);
  }
  return edges;
}

}  // namespace

Graph random_regular(Vertex n, std::uint32_t r, Rng& rng) {
  if (r >= n) throw std::invalid_argument("random_regular: need r < n");
  if ((static_cast<std::uint64_t>(n) * r) % 2 != 0)
    throw std::invalid_argument("random_regular: n*r must be even");
  if (r == 0) return Graph::from_edges(n, EdgeList{});
  for (;;) {
    auto edges = steger_wormald_attempt(n, r, rng);
    if (edges) return Graph::from_edges(n, std::move(*edges));
  }
}

Graph random_regular_connected(Vertex n, std::uint32_t r, Rng& rng) {
  if (r >= n) throw std::invalid_argument("random_regular_connected: need r < n");
  if ((static_cast<std::uint64_t>(n) * r) % 2 != 0)
    throw std::invalid_argument("random_regular_connected: n*r must be even");
  if (r == 0) {
    if (n > 1)
      throw std::invalid_argument("random_regular_connected: r = 0, n > 1 cannot be connected");
    return Graph::from_edges(n, EdgeList{});
  }
  UnionFind uf(n);
  for (;;) {
    auto edges = steger_wormald_attempt(n, r, rng, &uf);
    if (!edges) continue;
    if (uf.components() != 1) {
      g_sw_connectivity_retries.fetch_add(1, std::memory_order_relaxed);
      continue;  // rejected before any CSR build
    }
    return Graph::from_edges(n, std::move(*edges));
  }
}

// ---- Pairing model with edge-swap repair ---------------------------------

namespace {

// Flat open-addressed multiplicity table over edge keys: the pairing
// generator's hot structure. A node-based unordered_map makes generation
// hash-allocation-bound (measured ~2x slower end to end); linear probing
// over two preallocated arrays at load factor <= 2/3 keeps the whole first
// pass cache-friendly. Slots are never reclaimed — a decremented-to-zero
// key stays as a placeholder so probe chains remain valid — which is fine
// here: the repair inserts only O(defects) keys beyond the initial m.
// At most one instance may be live per thread (the backing storage is
// thread_local); pairing_repair_attempt's single function-local table
// satisfies this by construction. add_all's parts on other threads write
// the constructing thread's storage, and are joined before it returns.
// Capacity and probe order only affect speed, never the multiplicities the
// table reports, so resizing policy and the fill's interleaving are free to
// change without perturbing generated graphs.
class EdgeCountTable {
 public:
  /// Table sized for `expected` distinct keys (capacity >= 1.5x, power of
  /// two). Construction reuses the calling thread's storage from previous
  /// tables (a sweep builds hundreds of same-sized graphs per thread;
  /// re-faulting tens of MB of freshly mmapped pages per trial dominated
  /// construction), so only the sentinel refill is paid, not the page
  /// faults.
  explicit EdgeCountTable(std::size_t expected)
      : keys_(thread_keys()), counts_(thread_counts()) {
    std::size_t cap = 16;
    while (2 * cap < 3 * expected + 2) cap <<= 1;
    mask_ = cap - 1;
    keys_.assign(cap, kEmpty);
    counts_.assign(cap, 0);
  }

  /// Paper-scale tables (beyond ~4M slots, i.e. n in the millions) would pin
  /// hundreds of MB of thread_local storage across the CSR build that
  /// follows — the dominant term of the generation peak-RSS envelope — so
  /// they release the backing storage instead of retaining it; sweep-typical
  /// sizes keep the reuse optimisation.
  ~EdgeCountTable() {
    constexpr std::size_t kRetainCap = std::size_t{1} << 22;
    if (mask_ + 1 > kRetainCap) {
      LargeVector<std::uint64_t>().swap(keys_);
      LargeVector<std::uint32_t>().swap(counts_);
    }
  }

  /// Current multiplicity of `key` (0 when absent).
  std::uint32_t count(std::uint64_t key) const { return counts_[slot(key)]; }

  /// Adds one occurrence of every edge's key and returns the keys that
  /// occur more than once (each once, in no fixed order). Parts claim empty
  /// slots by CAS and count by fetch_add, so no multiplicity depends on how
  /// they interleave; a repeated key is reported by the part that took its
  /// count from 1 to 2.
  std::vector<std::uint64_t> add_all(std::span<const Endpoints> edges) {
    const auto parts = for_each_part(edges.size(), [&](Part part) {
      std::vector<std::uint64_t> repeated;
      const std::size_t end = part.end(edges.size());
      for (std::size_t i = part.begin(edges.size()); i < end; ++i) {
        const std::uint64_t key = edge_key(edges[i].u, edges[i].v);
        std::uint32_t before;
        if (part.count == 1) {  // alone: plain accesses keep the misses overlapped
          const std::size_t at = slot(key);
          keys_[at] = key;
          before = counts_[at]++;
        } else {
          before = std::atomic_ref<std::uint32_t>(counts_[claim(key)])
                       .fetch_add(1, std::memory_order_relaxed);
        }
        if (before == 1) repeated.push_back(key);
      }
      return repeated;
    });
    std::vector<std::uint64_t> repeated;
    for (const auto& keys : parts) repeated.insert(repeated.end(), keys.begin(), keys.end());
    return repeated;
  }

  /// Adds one occurrence of `key`.
  void increment(std::uint64_t key) {
    const std::size_t i = slot(key);
    keys_[i] = key;
    ++counts_[i];
  }

  /// Removes one occurrence of `key`. Precondition: count(key) > 0.
  void decrement(std::uint64_t key) { --counts_[slot(key)]; }

 private:
  // kEmpty is unreachable as an edge key: both endpoints would have to be
  // 0xFFFFFFFF, i.e. vertex ids of an n = 2^32 graph, beyond Vertex range.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::size_t home(std::uint64_t key) const {
    // SplitMix64 finalizer as the hash: edge keys are highly structured
    // (high word = min endpoint), so identity hashing would cluster.
    std::uint64_t z = key + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return static_cast<std::size_t>(z) & mask_;
  }

  std::size_t slot(std::uint64_t key) const {
    std::size_t i = home(key);
    while (keys_[i] != kEmpty && keys_[i] != key) i = (i + 1) & mask_;
    return i;
  }

  // slot() for concurrent parts: an empty slot on the probe path is taken
  // by CAS; losing the race to another key moves the probe on.
  std::size_t claim(std::uint64_t key) {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      std::atomic_ref<std::uint64_t> held(keys_[i]);
      std::uint64_t seen = held.load(std::memory_order_relaxed);
      if (seen == kEmpty &&
          held.compare_exchange_strong(seen, key, std::memory_order_relaxed))
        return i;
      if (seen == key) return i;
    }
  }

  static LargeVector<std::uint64_t>& thread_keys() {
    static thread_local LargeVector<std::uint64_t> keys;
    return keys;
  }
  static LargeVector<std::uint32_t>& thread_counts() {
    static thread_local LargeVector<std::uint32_t> counts;
    return counts;
  }

  std::size_t mask_ = 0;
  LargeVector<std::uint64_t>& keys_;
  LargeVector<std::uint32_t>& counts_;
};

// The few keys a pairing pass repeats (Θ(r²) expected, independent of n) in
// a small open-addressed set, probed once per edge by the defect scan.
class KeySet {
 public:
  explicit KeySet(std::span<const std::uint64_t> keys) {
    while (std::size_t{1} << bits_ < 2 * keys.size()) ++bits_;
    slots_.assign(std::size_t{1} << bits_, kEmpty);
    for (const std::uint64_t key : keys) {
      std::size_t i = home(key);
      while (slots_[i] != kEmpty) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = key;
    }
  }

  bool contains(std::uint64_t key) const noexcept {
    for (std::size_t i = home(key);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == key) return true;
      if (slots_[i] == kEmpty) return false;
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> (64 - bits_));
  }

  int bits_ = 4;
  std::vector<std::uint64_t> slots_;
};

// One pairing pass followed by in-place 2-swap repair of the defective
// (loop/duplicate) edges. Returns nullopt when the repair stalls — a
// proposal budget guards against dense corner cases (r close to n) where no
// valid replacement edge may exist — in which case the caller re-pairs.
std::optional<EdgeList> pairing_repair_attempt(Vertex n, std::uint32_t r,
                                               Rng& rng) {
  g_pairing_attempts.fetch_add(1, std::memory_order_relaxed);
  const std::size_t m = static_cast<std::size_t>(n) * r / 2;
  EdgeList edges(m);
  {
    // Stub phase in its own scope: the 2m-stub array is dead weight once
    // the edge list exists, and freeing it before the count table is built
    // keeps the two biggest generation-scratch blocks from coexisting
    // (peak-RSS envelope, see docs/REPRODUCING.md).
    LargeVector<Vertex> stubs;
    stubs.reserve(2 * m);
    for (Vertex v = 0; v < n; ++v)
      for (std::uint32_t i = 0; i < r; ++i) stubs.push_back(v);
    rng.shuffle(std::span<Vertex>(stubs));
    for (std::size_t i = 0; i < m; ++i)
      edges[i] = Endpoints{stubs[2 * i], stubs[2 * i + 1]};
  }
  EdgeCountTable count(m);
  const KeySet repeated(count.add_all(edges));

  const auto defective = [&](const Endpoints& e) {
    return e.u == e.v || count.count(edge_key(e.u, e.v)) > 1;
  };
  // The first defect list needs no second pass of random table reads: an
  // edge is defective iff it is a loop or its key is one of the few the
  // fill saw twice. Parts scan the list in index order, so the list comes
  // out ascending.
  std::vector<std::size_t> defects;
  for (const auto& part : for_each_part(m, [&](Part p) {
         std::vector<std::size_t> found;
         for (std::size_t i = p.begin(m); i < p.end(m); ++i)
           if (edges[i].u == edges[i].v ||
               repeated.contains(edge_key(edges[i].u, edges[i].v)))
             found.push_back(i);
         return found;
       }))
    defects.insert(defects.end(), part.begin(), part.end());

  // The expected defect count after one pairing pass is Θ(r²) (independent
  // of n) and each repair accepts with Ω(1) probability on sparse graphs,
  // so the budget is generous; it only ever trips when the instance is so
  // dense that valid swaps are scarce.
  std::uint64_t budget = 200 * (defects.size() + 16);
  while (!defects.empty()) {
    const std::size_t i = defects.back();
    if (!defective(edges[i])) {  // healed when its duplicate twin was swapped
      defects.pop_back();
      continue;
    }
    if (budget-- == 0) return std::nullopt;
    const std::size_t j = static_cast<std::size_t>(rng.uniform(m));
    if (j == i) continue;
    const Endpoints d = edges[i];
    const Endpoints s = edges[j];
    if (defective(s)) continue;  // swap partners must be sound
    // Random orientation of the 2-swap: {u,v},{x,y} -> {u,x},{v,y} or
    // {u,y},{v,x}; both replacement edges must be new non-loops.
    const bool flip = rng.uniform(2) == 1;
    const Endpoints e1{d.u, flip ? s.v : s.u};
    const Endpoints e2{d.v, flip ? s.u : s.v};
    if (e1.u == e1.v || e2.u == e2.v) continue;
    const std::uint64_t k1 = edge_key(e1.u, e1.v);
    const std::uint64_t k2 = edge_key(e2.u, e2.v);
    if (k1 == k2) continue;  // the two replacements would duplicate each other
    if (count.count(k1) > 0 || count.count(k2) > 0) continue;
    count.decrement(edge_key(d.u, d.v));
    count.decrement(edge_key(s.u, s.v));
    count.increment(k1);
    count.increment(k2);
    edges[i] = e1;
    edges[j] = e2;
    defects.pop_back();  // e1 is sound by construction; e2 likewise
  }
  return edges;
}

}  // namespace

Graph random_regular_pairing(Vertex n, std::uint32_t r, Rng& rng) {
  if (r >= n) throw std::invalid_argument("random_regular_pairing: need r < n");
  if ((static_cast<std::uint64_t>(n) * r) % 2 != 0)
    throw std::invalid_argument("random_regular_pairing: n*r must be even");
  if (r == 0) return Graph::from_edges(n, EdgeList{});
  for (;;) {
    auto edges = pairing_repair_attempt(n, r, rng);
    if (edges) return Graph::from_edges(n, std::move(*edges));
  }
}

Graph random_regular_pairing_connected(Vertex n, std::uint32_t r, Rng& rng) {
  if (r >= n) throw std::invalid_argument("random_regular_pairing_connected: need r < n");
  if ((static_cast<std::uint64_t>(n) * r) % 2 != 0)
    throw std::invalid_argument("random_regular_pairing_connected: n*r must be even");
  if (r == 0) {
    if (n > 1)
      throw std::invalid_argument(
          "random_regular_pairing_connected: r = 0, n > 1 cannot be connected");
    return Graph::from_edges(n, EdgeList{});
  }
  for (;;) {
    auto edges = pairing_repair_attempt(n, r, rng);
    if (!edges) continue;
    // The swap repair removes edges, so an incrementally-maintained
    // union-find could over-report connectivity; one exact union-find pass
    // over the final edge list decides the retry the moment repair
    // finishes — still no BFS and no CSR build on the reject path.
    if (!edge_list_connected(n, *edges)) {
      g_pairing_connectivity_retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    return Graph::from_edges(n, std::move(*edges));
  }
}

Graph configuration_model(const std::vector<std::uint32_t>& degrees, Rng& rng,
                          bool simple) {
  std::uint64_t total = 0;
  for (auto d : degrees) total += d;
  if (total % 2 != 0)
    throw std::invalid_argument("configuration_model: degree sum must be even");

  const Vertex n = static_cast<Vertex>(degrees.size());
  LargeVector<Vertex> stubs;
  stubs.reserve(total);

  for (;;) {
    stubs.clear();
    for (Vertex v = 0; v < n; ++v)
      for (std::uint32_t i = 0; i < degrees[v]; ++i) stubs.push_back(v);
    rng.shuffle(std::span<Vertex>(stubs));

    EdgeList edges;
    edges.reserve(total / 2);
    bool ok = true;
    std::unordered_set<std::uint64_t> seen;
    if (simple) seen.reserve(total);
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      const Vertex u = stubs[i], v = stubs[i + 1];
      if (simple) {
        if (u == v || seen.count(edge_key(u, v))) {
          ok = false;
          break;
        }
        seen.insert(edge_key(u, v));
      }
      edges.push_back(Endpoints{u, v});
    }
    if (ok) return Graph::from_edges(n, std::move(edges));
  }
}

Graph hamiltonian_cycle_union(Vertex n, std::uint32_t k, Rng& rng, bool simple) {
  if (n < 3) throw std::invalid_argument("hamiltonian_cycle_union: n must be >= 3");
  if (k == 0) throw std::invalid_argument("hamiltonian_cycle_union: k must be >= 1");
  std::vector<Vertex> perm(n);
  for (;;) {
    EdgeList edges;
    edges.reserve(static_cast<std::size_t>(n) * k);
    std::unordered_set<std::uint64_t> seen;
    if (simple) seen.reserve(edges.capacity() * 2);
    bool ok = true;
    for (std::uint32_t c = 0; c < k && ok; ++c) {
      for (Vertex i = 0; i < n; ++i) perm[i] = i;
      rng.shuffle(std::span<Vertex>(perm));
      for (Vertex i = 0; i < n; ++i) {
        const Vertex u = perm[i], v = perm[(i + 1) % n];
        if (simple) {
          if (seen.count(edge_key(u, v))) {
            ok = false;
            break;
          }
          seen.insert(edge_key(u, v));
        }
        edges.push_back(Endpoints{u, v});
      }
    }
    if (ok) return Graph::from_edges(n, std::move(edges));
  }
}

Graph erdos_renyi(Vertex n, double p, Rng& rng) {
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("erdos_renyi: p out of range");
  GraphBuilder b(n);
  if (p <= 0.0) return b.build();
  if (p >= 1.0) return complete_graph(n);
  // Geometric skipping over the (n choose 2) pair sequence: O(n + m).
  const double log1mp = std::log1p(-p);
  std::uint64_t total_pairs = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::uint64_t idx = 0;
  const auto pair_of = [n](std::uint64_t t) {
    // Invert t = u*n - u*(u+1)/2 + (v-u-1) lexicographic pair index.
    Vertex u = 0;
    std::uint64_t row = n - 1;
    while (t >= row) {
      t -= row;
      --row;
      ++u;
    }
    const Vertex v = static_cast<Vertex>(u + 1 + t);
    return Endpoints{u, v};
  };
  for (;;) {
    const double gap = std::floor(std::log1p(-rng.uniform_real()) / log1mp);
    idx += static_cast<std::uint64_t>(gap);
    if (idx >= total_pairs) break;
    const auto [u, v] = pair_of(idx);
    b.add_edge(u, v);
    ++idx;
  }
  return std::move(b).build();
}

Graph random_geometric(Vertex n, double radius, Rng& rng) {
  if (radius <= 0.0) throw std::invalid_argument("random_geometric: radius must be > 0");
  struct Point {
    double x, y;
  };
  std::vector<Point> pts(n);
  for (auto& p : pts) {
    p.x = rng.uniform_real();
    p.y = rng.uniform_real();
  }
  // Bucket grid of cell size radius: only neighbouring cells need checking.
  const std::uint32_t cells = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::floor(1.0 / radius)));
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Vertex>> grid;
  const auto cell_of = [&](const Point& p) {
    const auto cx = std::min<std::uint32_t>(cells - 1, static_cast<std::uint32_t>(p.x * cells));
    const auto cy = std::min<std::uint32_t>(cells - 1, static_cast<std::uint32_t>(p.y * cells));
    return std::make_pair(cx, cy);
  };
  for (Vertex v = 0; v < n; ++v) grid[cell_of(pts[v])].push_back(v);

  GraphBuilder b(n);
  const double r2 = radius * radius;
  for (Vertex v = 0; v < n; ++v) {
    const auto [cx, cy] = cell_of(pts[v]);
    for (int dx = -1; dx <= 1; ++dx)
      for (int dy = -1; dy <= 1; ++dy) {
        const std::int64_t nx = static_cast<std::int64_t>(cx) + dx;
        const std::int64_t ny = static_cast<std::int64_t>(cy) + dy;
        if (nx < 0 || ny < 0 || nx >= cells || ny >= cells) continue;
        const auto it = grid.find({static_cast<std::uint32_t>(nx), static_cast<std::uint32_t>(ny)});
        if (it == grid.end()) continue;
        for (const Vertex w : it->second) {
          if (w <= v) continue;
          const double ddx = pts[v].x - pts[w].x;
          const double ddy = pts[v].y - pts[w].y;
          if (ddx * ddx + ddy * ddy <= r2) b.add_edge(v, w);
        }
      }
  }
  return std::move(b).build();
}

}  // namespace ewalk
