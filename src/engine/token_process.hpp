// Interacting-walker base of the WalkProcess interface.
//
// The interacting processes (coalescing random walks and coalescing
// E-walks in src/interact/coalescing.hpp, Herman's protocol in
// src/interact/herman.hpp, coalescing walks on a PCF-evolving graph in
// engine/pcf_process.hpp) carry several tokens whose count *shrinks* over
// time: tokens that collide merge (coalescence) or annihilate in pairs
// (Herman). The quantity of interest is no longer a cover time but the
// coalescence time — the step at which one token remains — and the
// first-meeting time.
//
// TokenProcess owns the state all of them share — the TokenSystem, the
// CoverState, the round-robin cursor and the step count — and the turn
// bookkeeping around one token's move. A subclass keeps only step() and its
// own state (rule, colouring, ring orientation, PCF schedule). Interacting
// processes remain drivable by everything that takes a WalkProcess (cover
// predicates still work: tokens keep visiting vertices) while the
// token-aware predicates below terminate on population events. The driver
// overload run_until_process() evaluates predicates over the *process*
// rather than its CoverState, which is what population predicates need.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/process.hpp"
#include "interact/token_system.hpp"

namespace ewalk {

/// Base of the interacting-token processes (coalescing walks, Herman's
/// protocol): owns the token population and the cover bookkeeping, and
/// adds the shrinking-population observables the token predicates below
/// terminate on. Stepping model: one step() moves one token, round-robin
/// over the alive population (system steps).
class TokenProcess : public WalkProcess {
 public:
  /// Position of the token about to move.
  Vertex current() const final { return tokens_.position(next_token_); }
  /// Token turns taken so far.
  std::uint64_t steps() const final { return steps_; }
  /// Vertex and edge cover by all tokens together.
  const CoverState& cover() const final { return cover_; }
  /// The graph the tokens walk on (for PCF processes, the base graph).
  const Graph& graph() const final { return *g_; }

  /// Tokens still alive (monotonically non-increasing; >= 1 forever after
  /// the population first reaches 1).
  std::uint32_t tokens_remaining() const { return tokens_.tokens_alive(); }

  /// Tokens the process started with.
  std::uint32_t initial_tokens() const { return tokens_.initial_tokens(); }

  /// Step of the first collision between two tokens; kNotCovered until one
  /// happens.
  std::uint64_t first_meeting_step() const {
    return tokens_.first_meeting_step();
  }

  /// Step at which the population reached 1; kNotCovered until then.
  std::uint64_t coalescence_step() const { return tokens_.coalescence_step(); }

  /// Fewest tokens the population can still shrink to: 1 unless the
  /// process has learnt that some tokens can never meet (PcfCoalescingSrw,
  /// once its graph stops changing, counts the components that hold
  /// tokens). A target below it cannot be reached.
  std::uint32_t token_floor() const { return token_floor_; }

 protected:
  /// Places one token on each start vertex (distinct, in range, at least
  /// one) and visits them at step 0. `cover_edges` sizes the edge side of
  /// the cover: g.num_edges() on a static graph.
  TokenProcess(const Graph& g, const std::vector<Vertex>& starts,
               EdgeId cover_edges)
      : g_(&g), tokens_(g.num_vertices(), starts),
        cover_(g.num_vertices(), cover_edges) {
    for (const Vertex v : starts) cover_.visit_vertex(v, 0);
  }

  /// Starts a turn: counts the step and returns the token that moves.
  TokenSystem::TokenId begin_turn() {
    ++steps_;
    return next_token_;
  }

  /// Moves token t to `to` and visits it; returns the token already there
  /// (a collision the caller must resolve at once) or kNoToken.
  TokenSystem::TokenId land(TokenSystem::TokenId t, Vertex to) {
    const TokenSystem::TokenId other = tokens_.move(t, to, steps_);
    cover_.visit_vertex(to, steps_);
    return other;
  }

  /// land(), merging on a collision: the mover dies, the occupant lives.
  void land_and_merge(TokenSystem::TokenId t, Vertex to) {
    if (land(t, to) != TokenSystem::kNoToken) tokens_.kill(t, steps_);
  }

  /// Ends t's turn: the next alive token after t moves next.
  void end_turn(TokenSystem::TokenId t) {
    next_token_ = tokens_.next_alive_after(t);
  }

  const Graph* g_;     ///< the graph the tokens walk on
  TokenSystem tokens_;  ///< token positions, occupancy and merge events
  CoverState cover_;    ///< cover by all tokens together
  TokenSystem::TokenId next_token_ = 0;  ///< about to move; always alive
  std::uint64_t steps_ = 0;              ///< turns taken
  std::uint32_t token_floor_ = 1;        ///< see token_floor()
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
// CoverState; TokenProcess's population reads are non-virtual, so none of
// them dispatches, even through TokenProcess&.

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
