#include "serve/graph_store.hpp"

#include <sstream>
#include <stdexcept>

#include "analysis/girth.hpp"
#include "engine/registry.hpp"
#include "graph/algorithms.hpp"
#include "spectral/conductance.hpp"
#include "spectral/spectrum.hpp"
#include "util/rng.hpp"

namespace ewalk {

std::uint64_t CachedGraph::bytes() const noexcept {
  const std::uint64_t n = graph_.num_vertices();
  const std::uint64_t m = graph_.num_edges();
  // offsets: (n+1) u32; slots: 2m Slot (8 bytes); edges: m Endpoints (8).
  return (n + 1) * 4 + 2 * m * 8 + m * 8 + sizeof(CachedGraph);
}

const GraphAnalysis& CachedGraph::analysis(bool* hit) const {
  std::lock_guard<std::mutex> lock(analysis_mutex_);
  if (analysis_) {
    if (hit) *hit = true;
    return *analysis_;
  }
  if (hit) *hit = false;
  GraphAnalysis a;
  const WalkSpectrum spectrum = estimate_spectrum(graph_);
  a.lambda2 = spectrum.lambda2;
  a.lambda_n = spectrum.lambda_n;
  a.gap = spectrum.gap();
  const ConductanceBounds phi = conductance_bounds_from_lambda2(spectrum.lambda2);
  a.conductance_lower = phi.lower;
  a.conductance_upper = phi.upper;
  a.girth = girth(graph_);
  analysis_ = a;
  return *analysis_;
}

std::shared_ptr<const CachedGraph> build_cached_graph(const std::string& generator,
                                                      const ParamMap& params,
                                                      std::uint64_t seed) {
  const GeneratorEntry& family = GeneratorRegistry::instance().at(generator);
  Rng graph_rng(seed);
  Graph g = GeneratorRegistry::instance().create(generator, params, graph_rng);
  const bool connected = family.connected_by_construction || is_connected(g);
  return std::make_shared<CachedGraph>(std::move(g), connected);
}

std::string GraphStore::cache_key(const std::string& generator,
                                  const ParamMap& params, std::uint64_t seed) {
  // ParamMap iterates its std::map in key order — already canonical.
  ParamMap canonical;
  for (const ParamSpec& spec : GeneratorRegistry::instance().schema(generator, params))
    if (params.has(spec.name))
      canonical.set(spec.name, canonical_param(spec, params.get(spec.name)));
  std::ostringstream key;
  key << generator << "|seed=" << seed;
  for (const auto& [k, v] : canonical.values()) key << '|' << k << '=' << v;
  return key.str();
}

void GraphStore::touch(Entry& entry, const std::string& key) {
  lru_.erase(entry.lru_pos);
  lru_.push_front(key);
  entry.lru_pos = lru_.begin();
}

void GraphStore::evict_to_budget(const std::string& keep_key) {
  if (max_bytes_ == 0) return;
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    const std::string& victim = lru_.back();
    if (victim == keep_key) break;  // never evict the entry just inserted
    auto it = entries_.find(victim);
    bytes_ -= it->second.graph->bytes();
    entries_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::shared_ptr<const CachedGraph> GraphStore::acquire(
    const std::string& generator, const ParamMap& params, std::uint64_t seed,
    bool* hit) {
  const std::string key = cache_key(generator, params, seed);
  if (hit) *hit = true;  // every return path below except the build is a hit

  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (auto it = entries_.find(key); it != entries_.end()) {
      ++stats_.hits;
      touch(it->second, key);
      return it->second.graph;
    }
    auto build_it = building_.find(key);
    if (build_it == building_.end()) break;
    // Another request is constructing this key right now: wait for it and
    // count as a hit — this request triggers zero additional construction.
    std::shared_ptr<Build> build = build_it->second;
    ++stats_.coalesced;
    build_cv_.wait(lock, [&build] { return build->done; });
    if (build->failed) throw std::runtime_error(build->error);
    // The entry is now resident (or was already evicted under an extreme
    // budget — loop and re-check; worst case this thread rebuilds it).
  }

  auto build = std::make_shared<Build>();
  building_.emplace(key, build);
  ++stats_.misses;
  if (hit) *hit = false;
  lock.unlock();

  std::shared_ptr<const CachedGraph> cached;
  try {
    cached = build_cached_graph(generator, params, seed);
  } catch (const std::exception& ex) {
    lock.lock();
    build->failed = true;
    build->error = ex.what();
    build->done = true;
    building_.erase(key);
    build_cv_.notify_all();
    throw;
  }

  lock.lock();
  lru_.push_front(key);
  entries_.emplace(key, Entry{cached, lru_.begin()});
  bytes_ += cached->bytes();
  evict_to_budget(key);
  build->done = true;
  building_.erase(key);
  build_cv_.notify_all();
  return cached;
}

void GraphStore::note_analysis(bool hit) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (hit)
    ++stats_.analysis_hits;
  else
    ++stats_.analysis_misses;
}

GraphStoreStats GraphStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  GraphStoreStats out = stats_;
  out.entries = entries_.size();
  out.bytes = bytes_;
  return out;
}

}  // namespace ewalk
