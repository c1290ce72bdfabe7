// Interacting-walker extension of the WalkProcess interface.
//
// The interacting processes in src/interact/ (coalescing random walks,
// coalescing E-walks, Herman's protocol) carry several tokens whose count
// *shrinks* over time: tokens that collide merge (coalescence) or annihilate
// in pairs (Herman). The quantity of interest is no longer a cover time but
// the coalescence time — the step at which one token remains — and the
// first-meeting time.
//
// TokenProcess adds those observables on top of WalkProcess, so interacting
// processes remain drivable by everything that takes a WalkProcess (cover
// predicates still work: tokens keep visiting vertices) while the
// token-aware predicates below terminate on population events. The driver
// overload run_until_process() evaluates predicates over the *process*
// rather than its CoverState, which is what population predicates need.
#pragma once

#include <cstdint>

#include "engine/process.hpp"

namespace ewalk {

/// WalkProcess extension for interacting-token processes (coalescing walks,
/// Herman's protocol): adds the shrinking-population observables the
/// token predicates below terminate on.
class TokenProcess : public WalkProcess {
 public:
  /// Tokens still alive (monotonically non-increasing; >= 1 forever after
  /// the population first reaches 1).
  virtual std::uint32_t tokens_remaining() const = 0;

  /// Tokens the process started with.
  virtual std::uint32_t initial_tokens() const = 0;

  /// Step of the first collision between two tokens; kNotCovered until one
  /// happens.
  virtual std::uint64_t first_meeting_step() const = 0;

  /// Step at which the population reached 1; kNotCovered until then.
  virtual std::uint64_t coalescence_step() const = 0;
};

/// What a registered process is (ProcessEntry::kind): a run with no
/// explicit target covers vertices with a walk and coalesces tokens.
enum class ProcessKind : std::uint8_t {
  kWalk,  ///< a WalkProcess that is not a TokenProcess
  kToken  ///< a TokenProcess
};

// ---- Token-population termination predicates ------------------------------
//
// These are evaluated over the process (not the CoverState), so drive them
// with run_until_process (engine/driver.hpp). They are templates over the
// process reference the same way the cover predicates are callables over
// CoverState: static dispatch for concrete classes, virtual through
// TokenProcess&.

/// One token left: the coalescence (or Herman stabilisation) event.
struct CoalescedToOne {
  /// True once p.tokens_remaining() <= 1.
  template <typename Process>
  bool operator()(const Process& p) const {
    return p.tokens_remaining() <= 1;
  }
};

/// Population has shrunk to at most k tokens.
struct TokensAtMost {
  std::uint32_t k;  ///< population threshold (inclusive)
  /// True once p.tokens_remaining() <= k.
  template <typename Process>
  bool operator()(const Process& p) const {
    return p.tokens_remaining() <= k;
  }
};

/// Some pair of tokens has met at least once (first-meeting time).
struct TokensHaveMet {
  /// True once the process records a first meeting.
  template <typename Process>
  bool operator()(const Process& p) const {
    return p.first_meeting_step() != kNotCovered;
  }
};

}  // namespace ewalk
