// GraphStore — the serving layer's cache of constructed graphs and their
// expensive analysis results.
//
// A long-lived daemon amortises the two costs a one-shot CLI run pays every
// time: graph construction (dominant at paper-range n) and spectral/girth
// analysis (superlinear). The store caches both, keyed by
// (generator, canonical params, seed) — exactly the inputs that determine
// the constructed graph bit-for-bit, because every generator draws only
// from Rng(seed) and reads only its declared parameters.
//
// Canonical params: only the keys the generator's schema declares (for
// pcf, plus its base family's), in canonical form — decimal integers,
// shortest round-trip reals — so requests differing in walk-level
// parameters (--rule, --tokens) or in spelling ("1e3" vs "1000") share an
// entry.
//
// Lifetime: acquire() hands out shared_ptr<const CachedGraph>; eviction
// drops the store's reference only, so in-flight requests keep their
// instance alive until they finish. Eviction is LRU under a byte budget
// (--cache-bytes): each insert evicts least-recently-used entries until
// the estimated resident bytes fit (the newest entry is never evicted —
// a single over-budget graph is served and retained rather than thrashed).
//
// Concurrency: one mutex guards the map; construction happens OUTSIDE the
// lock with single-flight coalescing — concurrent requests for one
// uncached key build it once, the rest wait on a condition variable and
// count as hits (served with zero additional construction). Lazy analysis
// is per-entry, protected by the entry's own mutex.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "engine/params.hpp"
#include "graph/graph.hpp"

namespace ewalk {

/// Cached expensive analysis of a graph: the spectral quantities and girth
/// the paper's bounds consume, computed lazily once per cached instance.
struct GraphAnalysis {
  double lambda2 = 0.0;            ///< second-largest eigenvalue of P
  double lambda_n = 0.0;           ///< smallest eigenvalue of P
  double gap = 0.0;                ///< 1 - max(lambda2, |lambda_n|)
  double conductance_lower = 0.0;  ///< Cheeger lower bound from lambda2
  double conductance_upper = 0.0;  ///< Cheeger upper bound from lambda2
  std::uint32_t girth = 0;         ///< kInfiniteGirth when acyclic
};

/// One cached graph instance: the immutable Graph, its construction key,
/// connectivity (computed once at build), and the lazily computed analysis.
class CachedGraph {
 public:
  /// Wraps a constructed graph. `connected` is computed by the store at
  /// build time so per-request connectivity checks cost nothing.
  CachedGraph(Graph graph, bool connected)
      : graph_(std::move(graph)), connected_(connected) {}

  /// The immutable graph every request with this key runs on.
  const Graph& graph() const noexcept { return graph_; }
  /// Whether the graph is connected (decided once, at construction).
  bool connected() const noexcept { return connected_; }

  /// Estimated resident bytes of the CSR (offsets + slots + edge list);
  /// what the store's byte budget meters.
  std::uint64_t bytes() const noexcept;

  /// The analysis block, computed on first call (spectral power iteration,
  /// Cheeger bounds, exact girth — the girth sweep is O(n(n+m)), so ask
  /// only when the response needs it) and cached for every later call.
  /// `hit` (optional) reports whether this call was served from cache.
  const GraphAnalysis& analysis(bool* hit = nullptr) const;

 private:
  Graph graph_;
  bool connected_ = false;
  mutable std::mutex analysis_mutex_;
  mutable std::optional<GraphAnalysis> analysis_;
};

/// Monotone counters describing a GraphStore's behaviour; snapshot via
/// GraphStore::stats(). Single-flight waiters count as hits (they were
/// served without construction), so hit/miss totals are deterministic for
/// a fixed request multiset regardless of arrival interleaving.
struct GraphStoreStats {
  std::uint64_t hits = 0;            ///< served from cache (incl. coalesced waits)
  std::uint64_t misses = 0;          ///< required a construction
  std::uint64_t evictions = 0;       ///< entries dropped by the byte budget
  std::uint64_t coalesced = 0;       ///< hits that waited on an in-flight build
  std::uint64_t analysis_hits = 0;   ///< analysis served from cache
  std::uint64_t analysis_misses = 0; ///< analysis computed
  std::uint64_t entries = 0;         ///< resident graphs right now
  std::uint64_t bytes = 0;           ///< estimated resident bytes right now
};

/// The serving layer's graph cache (see file comment for the contract).
class GraphStore {
 public:
  /// A store keeping at most ~`max_bytes` of graph data resident
  /// (0 = unlimited, nothing is ever evicted).
  explicit GraphStore(std::uint64_t max_bytes = 0) : max_bytes_(max_bytes) {}

  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  /// Returns the cached instance for (generator, canonical subset of
  /// `params`, seed), constructing it with Rng(seed) — bit-identical to the
  /// `ewalk` CLI's construction — on a miss. Concurrent callers with one
  /// uncached key construct once (single-flight); construction failures
  /// propagate to every coalesced waiter. `hit` (optional) reports whether
  /// THIS call was served without performing a construction (coalesced
  /// waits count as hits). Throws what the generator throws (unknown
  /// family, bad params).
  std::shared_ptr<const CachedGraph> acquire(const std::string& generator,
                                             const ParamMap& params,
                                             std::uint64_t seed,
                                             bool* hit = nullptr);

  /// Counter snapshot (consistent under the store mutex).
  GraphStoreStats stats() const;

  /// Folds one analysis lookup into the counters: execute_run reports
  /// whether the entry's lazy analysis block was already computed.
  void note_analysis(bool hit);

  /// The configured byte budget (0 = unlimited).
  std::uint64_t max_bytes() const noexcept { return max_bytes_; }

  /// The canonical cache key for (generator, params, seed): the generator
  /// name, the seed, and each key GeneratorRegistry::schema declares, in
  /// canonical_param form and key order. Throws std::invalid_argument for
  /// an unknown generator or a malformed value. Exposed for tests.
  static std::string cache_key(const std::string& generator,
                               const ParamMap& params, std::uint64_t seed);

 private:
  struct Entry {
    std::shared_ptr<const CachedGraph> graph;
    std::list<std::string>::iterator lru_pos;  // position in lru_
  };
  struct Build {  // single-flight state for one in-progress construction
    bool done = false;
    bool failed = false;
    std::string error;
  };

  void touch(Entry& entry, const std::string& key);
  void evict_to_budget(const std::string& keep_key);

  const std::uint64_t max_bytes_;
  mutable std::mutex mutex_;
  std::condition_variable build_cv_;
  std::unordered_map<std::string, Entry> entries_;
  std::unordered_map<std::string, std::shared_ptr<Build>> building_;
  std::list<std::string> lru_;  // front = most recently used
  std::uint64_t bytes_ = 0;
  GraphStoreStats stats_;
};

}  // namespace ewalk
