// Shared token-population state for interacting-walker processes.
//
// A TokenSystem tracks k tokens moving on a graph's vertices: token →
// position, a per-vertex occupancy index (which alive token sits there, if
// any) for O(1) collision detection, and the merge bookkeeping the
// coalescence observables are built from (alive count, first-meeting step,
// coalescence step, merge event count).
//
// The system is policy-free: move() reports the collision and the process
// decides what a collision means — CoalescingRW, CoalescingEWalk and
// PcfCoalescingSrw merge the mover into the occupant (one token dies),
// HermanRing annihilates both. Either way the population only shrinks,
// which is what the token-population predicates (engine/token_process.hpp)
// terminate on. TokenProcess owns one TokenSystem per process.
//
// Invariant maintained throughout: at most one alive token occupies any
// vertex. Processes that resolve every collision as soon as move() reports
// it (all four TokenProcess subclasses) keep this automatically.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "walks/cover_state.hpp"

namespace ewalk {

class TokenSystem {
 public:
  using TokenId = std::uint32_t;
  static constexpr TokenId kNoToken = static_cast<TokenId>(-1);

  /// Places tokens 0..starts.size()-1 on their start vertices in the
  /// vertex set {0, ..., n-1}. Start vertices must be distinct (one token
  /// per vertex is the invariant) and in range. At least one token is
  /// required.
  TokenSystem(Vertex n, const std::vector<Vertex>& starts);

  std::uint32_t initial_tokens() const { return initial_tokens_; }
  std::uint32_t tokens_alive() const { return alive_count_; }
  bool alive(TokenId t) const { return alive_[t] != 0; }
  Vertex position(TokenId t) const { return positions_[t]; }

  /// Alive token occupying v, or kNoToken.
  TokenId occupant(Vertex v) const { return occupant_[v]; }

  /// Moves alive token t to vertex `to`. If another alive token occupies
  /// `to`, the move is recorded as a *collision*: t is left co-located with
  /// the occupant (occupancy index keeps the occupant) and the occupant's id
  /// is returned; the caller must resolve the collision before any further
  /// move by killing the mover (merge) or the mover and then the occupant
  /// (annihilation) — killing only the occupant would leave the vertex's
  /// occupancy entry stale. Returns kNoToken when `to` was free. Records
  /// the first-meeting step on the first collision.
  TokenId move(TokenId t, Vertex to, std::uint64_t step);

  /// Removes token t from the population (merge loser or annihilation
  /// victim). Records the coalescence step when the population reaches 1 —
  /// and, for annihilating processes that can reach 0, when it reaches 0
  /// (the population never "passes through" 1 silently).
  void kill(TokenId t, std::uint64_t step);

  /// Step of the first token-token collision; kNotCovered until one happens.
  std::uint64_t first_meeting_step() const { return first_meeting_step_; }

  /// Step at which the population first reached <= 1; kNotCovered until then.
  std::uint64_t coalescence_step() const { return coalescence_step_; }

  /// Collisions resolved so far (merges + annihilations).
  std::uint64_t collisions() const { return collisions_; }

  /// Round-robin cursor over alive tokens: the alive token with the
  /// smallest id > `after` in circular id order. O(1) from an alive token
  /// (the alive population is kept on a doubly-linked ring); from a dead
  /// token it follows forward pointers frozen at death time — each hop
  /// reaches a strictly later-dying token, so the walk terminates at an
  /// alive one. Precondition: tokens_alive() >= 1.
  TokenId next_alive_after(TokenId after) const;

 private:
  std::vector<Vertex> positions_;
  std::vector<std::uint8_t> alive_;
  std::vector<TokenId> occupant_;  // per vertex
  // Circular doubly-linked list over alive tokens in id order; kill()
  // unlinks but leaves the dead token's own pointers as of death time.
  std::vector<TokenId> next_alive_;
  std::vector<TokenId> prev_alive_;
  std::uint32_t initial_tokens_;
  std::uint32_t alive_count_;
  std::uint64_t first_meeting_step_ = kNotCovered;
  std::uint64_t coalescence_step_ = kNotCovered;
  std::uint64_t collisions_ = 0;
};

/// Canonical start layout for k walkers on an n-vertex graph: evenly spread
/// from `base`. Throws if k == 0, and — when `distinct` (the TokenSystem
/// requirement; non-interacting processes like multi-eprocess pass false) —
/// if k > n, where distinct starts are impossible.
std::vector<Vertex> spread_token_starts(Vertex n, std::uint32_t k, Vertex base,
                                        bool distinct = true);

}  // namespace ewalk
