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
// Walk classes implement WalkProcess by direct inheritance (SRW,
// MultiEProcess, rotor-router, V-process, RWC, locally-fair, weighted);
// EProcess, whose step() returns the transition colour, is wrapped by
// EProcessHandle (engine/adapters.hpp). The interacting-token processes
// derive from TokenProcess (engine/token_process.hpp), which implements
// the accessors once over the token state it owns.
//
// Deterministic processes (rotor-router, locally-fair) accept the Rng& and
// ignore it, so one signature drives everything.
#pragma once

#include <cstdint>

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

}  // namespace ewalk
