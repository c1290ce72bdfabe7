// The unified walk-engine process interface.
//
// Every walk process in src/walks/ is drivable through this interface: one
// transition per step(), with the shared CoverState exposing cover progress.
// Theorem 1's rule-independence makes head-to-head comparison across
// processes the repo's core workload, so the engine treats "a walk process"
// as a first-class polymorphic value: the generic driver (engine/driver.hpp)
// runs any process to any termination predicate, and the registry
// (engine/registry.hpp) constructs any process by name.
//
// The single-walker baselines (SRW, rotor-router, V-process, RWC,
// locally-fair, weighted) derive from SingleWalk below, which owns the
// graph, position, step count and cover and implements the accessors once;
// each class keeps only step() and its own state. MultiEProcess implements
// WalkProcess directly (its current() is the walker about to move), and
// EProcess, whose step() returns the transition colour, is wrapped by
// EProcessHandle (engine/adapters.hpp). The interacting-token processes
// derive from TokenProcess (engine/token_process.hpp), which does the same
// over the token state it owns.
//
// Deterministic processes (rotor-router, locally-fair) accept the Rng& and
// ignore it, so one signature drives everything.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "walks/cover_state.hpp"

/// \namespace ewalk
/// E-process cover-time lab: graphs, walk processes, the engine layer, and
/// the experiment harness (conf_podc_BerenbrinkCF12 reproduction).
namespace ewalk {

/// The unified walk-process interface: one transition per step(), shared
/// CoverState for progress, drivable by the generic driver and
/// constructible by name through the registry.
class WalkProcess {
 public:
  /// Virtual base: processes are owned and destroyed polymorphically.
  virtual ~WalkProcess() = default;

  /// Performs one transition. Deterministic processes ignore `rng`.
  virtual void step(Rng& rng) = 0;

  /// Vertex the process occupies (for multi-walker processes: the walker
  /// about to move).
  virtual Vertex current() const = 0;

  /// Number of transitions made so far.
  virtual std::uint64_t steps() const = 0;

  /// Shared cover-progress bookkeeping (vertex/edge cover, visit counts).
  virtual const CoverState& cover() const = 0;

  /// The graph the process runs on.
  virtual const Graph& graph() const = 0;
};

/// Base of the single-walker processes: one walker on a static graph. Owns
/// the graph, the walker's position, the step count and the cover, and the
/// move bookkeeping; a subclass keeps only step() and its own state, and
/// counts each step through exactly one cross() or stay().
class SingleWalk : public WalkProcess {
 public:
  /// Vertex the walker occupies.
  Vertex current() const final { return current_; }
  /// Transitions made so far (a lazy hold counts).
  std::uint64_t steps() const final { return steps_; }
  /// The graph the walker runs on.
  const Graph& graph() const final { return *g_; }
  /// Vertex and edge cover so far.
  const CoverState& cover() const final { return cover_; }

 protected:
  /// Places the walker on `start` and visits it at step 0. `name` prefixes
  /// the errors: "<name>: start vertex out of range" (std::invalid_argument)
  /// here, "<name>: stuck at isolated vertex" from stuck().
  SingleWalk(const Graph& g, Vertex start, const char* name)
      : g_(&g), current_(start), cover_(g.num_vertices(), g.num_edges()),
        name_(name) {
    if (start >= g.num_vertices())
      throw std::invalid_argument(std::string(name) +
                                  ": start vertex out of range");
    cover_.visit_vertex(start, 0);
  }

  /// Degree of the current vertex; stuck() when it is 0.
  std::uint32_t exit_degree() const {
    const std::uint32_t d = g_->degree(current_);
    if (d == 0) stuck();
    return d;
  }

  /// Throws std::logic_error: the walker sits on an isolated vertex.
  [[noreturn]] void stuck() const {
    throw std::logic_error(std::string(name_) + ": stuck at isolated vertex");
  }

  /// Counts a step that moves along `slot`: visits its edge, then the
  /// vertex it leads to.
  void cross(const Slot& slot) {
    ++steps_;
    cover_.visit_edge(slot.edge, steps_);
    current_ = slot.neighbor;
    cover_.visit_vertex(current_, steps_);
  }

  /// Counts a step that holds (a lazy walk's stay): revisits the current
  /// vertex.
  void stay() {
    ++steps_;
    cover_.visit_vertex(current_, steps_);
  }

 private:
  const Graph* g_;
  Vertex current_;
  std::uint64_t steps_ = 0;
  CoverState cover_;
  const char* name_;  // class name for error messages
};

}  // namespace ewalk
