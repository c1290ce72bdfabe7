// Thin WalkProcess adapter for the E-process.
//
// EProcess reports the colour of each transition from step(), so it cannot
// override WalkProcess::step(Rng&) directly (C++ forbids overloading on
// return type). The handle forwards the interface and additionally *owns*
// the choice rule, which EProcess only borrows — exactly what registry- and
// experiment-constructed processes need: one value that keeps rule and walk
// alive together.
#pragma once

#include <memory>
#include <utility>

#include "engine/process.hpp"
#include "walks/eprocess.hpp"

namespace ewalk {

/// Owns a rule + EProcess pair and exposes them as a WalkProcess.
class EProcessHandle final : public WalkProcess {
 public:
  /// Takes ownership of `rule` and starts an EProcess at `start` with it.
  EProcessHandle(const Graph& g, Vertex start,
                 std::unique_ptr<UnvisitedEdgeRule> rule,
                 EProcessOptions options = {})
      : rule_(std::move(rule)), walk_(g, start, *rule_, options) {}

  void step(Rng& rng) override { walk_.step(rng); }
  Vertex current() const override { return walk_.current(); }
  std::uint64_t steps() const override { return walk_.steps(); }
  const CoverState& cover() const override { return walk_.cover(); }
  const Graph& graph() const override { return walk_.graph(); }

  /// The underlying walk, for colour/phase-aware callers.
  EProcess& walk() { return walk_; }
  /// Read-only view of the underlying walk.
  const EProcess& walk() const { return walk_; }
  /// The owned choice rule.
  const UnvisitedEdgeRule& rule() const { return *rule_; }

 private:
  std::unique_ptr<UnvisitedEdgeRule> rule_;  // must outlive walk_
  EProcess walk_;
};

}  // namespace ewalk
