// The generic cover driver: one run_until() loop for every walk process.
//
// Callers name the target as a predicate, e.g.
// run_until(walk, rng, VertexCovered{}, budget); there is no per-target
// entry point. The driver is a template over the process type, so it
// drives both
//   * concrete walk classes (EProcess, SimpleRandomWalk, ...) with static
//     dispatch — the hot loop compiles to exactly the old member loop — and
//   * WalkProcess& (registry-constructed processes) with virtual dispatch.
//
// Termination predicates are small callables over the CoverState; the step
// budget is the driver's own termination condition (run_until returns false
// when it is exhausted before the predicate holds). Expensive predicates
// (min-visit-count is O(n)) declare a check stride so the driver only
// evaluates them every `stride` transitions — the same burst pattern the
// legacy SimpleRandomWalk visit-count loop used, reproducing its step
// counts exactly.
//
// RNG discipline: the driver makes precisely one step() call per
// transition and draws nothing from the rng itself, so a process driven by
// run_until consumes the identical random stream as the deleted member
// loops — per-trial reproducibility is preserved bit-for-bit.
#pragma once

#include <algorithm>
#include <cstdint>

#include "engine/process.hpp"
#include "util/rng.hpp"
#include "walks/cover_state.hpp"

namespace ewalk {

// ---- Termination predicates ---------------------------------------------

/// All n vertices visited.
struct VertexCovered {
  /// True once every vertex has been visited.
  bool operator()(const CoverState& c) const noexcept {
    return c.all_vertices_covered();
  }
};

/// All m edges traversed.
struct EdgesCovered {
  /// True once every edge has been traversed.
  bool operator()(const CoverState& c) const noexcept {
    return c.all_edges_covered();
  }
};

/// Every vertex visited at least `count` times (blanket-style target; the
/// check is O(n), so pair it with a stride — see visit_count_stride below).
struct MinVisitCountAtLeast {
  std::uint32_t count;  ///< required minimum visits per vertex
  /// True once min_visit_count() reaches the target.
  bool operator()(const CoverState& c) const noexcept {
    return c.min_visit_count() >= count;
  }
};

/// Stride at which an O(n) predicate is worth re-checking.
inline std::uint64_t visit_count_stride(const Graph& g) {
  return std::max<std::uint64_t>(1, g.num_vertices());
}

// ---- The generic driver ---------------------------------------------------

/// The fundamental driver: runs `process` until `predicate(process)` holds
/// or `max_steps` total transitions have been made (the step budget counts
/// *all* steps of the process's lifetime, matching the legacy member
/// loops). The predicate is evaluated every `check_stride` transitions
/// (1 = every step; 0 is treated as 1) and at the budget; it sees the whole
/// process, which is what the token-population predicates (CoalescedToOne,
/// TokensAtMost, TokensHaveMet — engine/token_process.hpp) need. Each burst
/// between predicate checks is a loop of step() calls. RNG discipline:
/// exactly one transition per step of the budget, nothing drawn by the
/// driver itself. Returns true iff the predicate holds on exit.
template <typename Process, typename Predicate>
bool run_until_process(Process& process, Rng& rng, Predicate predicate,
                       std::uint64_t max_steps, std::uint64_t check_stride = 1) {
  const std::uint64_t stride = std::max<std::uint64_t>(1, check_stride);
  for (;;) {
    if (predicate(process)) return true;
    if (process.steps() >= max_steps) return false;
    const std::uint64_t burst = std::min(stride, max_steps - process.steps());
    for (std::uint64_t i = 0; i < burst; ++i) process.step(rng);
  }
}

/// Runs `process` until `predicate(process.cover())` holds — the cover-state
/// view of run_until_process, which the cover predicates above compose over.
template <typename Process, typename Predicate>
bool run_until(Process& process, Rng& rng, Predicate predicate,
               std::uint64_t max_steps, std::uint64_t check_stride = 1) {
  return run_until_process(
      process, rng,
      [&predicate](const Process& p) { return predicate(p.cover()); },
      max_steps, check_stride);
}

/// True for processes that advance without randomness (they expose a no-arg
/// step() alongside the interface's step(Rng&)): rotor-router, locally-fair.
template <typename Process>
concept DeterministicProcess = requires(Process& p) { p.step(); };

/// Deterministic-process convenience: drives processes whose step() ignores
/// the rng without the caller owning one. Constrained so a stochastic walk
/// cannot silently run on a hidden fixed stream — pass a real Rng there.
template <DeterministicProcess Process, typename Predicate>
bool run_until(Process& process, Predicate predicate, std::uint64_t max_steps,
               std::uint64_t check_stride = 1) {
  Rng unused(0);
  return run_until(process, unused, predicate, max_steps, check_stride);
}

}  // namespace ewalk
