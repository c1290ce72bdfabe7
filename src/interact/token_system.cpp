#include "interact/token_system.hpp"

#include <stdexcept>

namespace ewalk {

TokenSystem::TokenSystem(Vertex n, const std::vector<Vertex>& starts)
    : positions_(starts),
      alive_(starts.size(), 1),
      occupant_(n, kNoToken),
      next_alive_(starts.size()),
      prev_alive_(starts.size()),
      initial_tokens_(static_cast<std::uint32_t>(starts.size())),
      alive_count_(static_cast<std::uint32_t>(starts.size())) {
  if (starts.empty())
    throw std::invalid_argument("TokenSystem: need at least one token");
  for (TokenId t = 0; t < initial_tokens_; ++t) {
    next_alive_[t] = (t + 1) % initial_tokens_;
    prev_alive_[t] = (t + initial_tokens_ - 1) % initial_tokens_;
  }
  for (TokenId t = 0; t < initial_tokens_; ++t) {
    const Vertex v = starts[t];
    if (v >= n)
      throw std::invalid_argument("TokenSystem: start vertex out of range");
    if (occupant_[v] != kNoToken)
      throw std::invalid_argument("TokenSystem: duplicate start vertex");
    occupant_[v] = t;
  }
  if (alive_count_ == 1) coalescence_step_ = 0;
}

TokenSystem::TokenId TokenSystem::move(TokenId t, Vertex to, std::uint64_t step) {
  const Vertex from = positions_[t];
  occupant_[from] = kNoToken;
  positions_[t] = to;
  const TokenId other = occupant_[to];
  if (other == kNoToken) {
    occupant_[to] = t;
    return kNoToken;
  }
  // Collision: the occupancy index keeps `other`; the caller resolves by
  // killing one (merge) or both (annihilation) before the next move.
  if (first_meeting_step_ == kNotCovered) first_meeting_step_ = step;
  ++collisions_;
  return other;
}

void TokenSystem::kill(TokenId t, std::uint64_t step) {
  alive_[t] = 0;
  --alive_count_;
  // Unlink from the alive ring; t's own pointers stay frozen so a cursor
  // standing on the just-killed token can still walk forward.
  next_alive_[prev_alive_[t]] = next_alive_[t];
  prev_alive_[next_alive_[t]] = prev_alive_[t];
  if (occupant_[positions_[t]] == t) occupant_[positions_[t]] = kNoToken;
  if (alive_count_ <= 1 && coalescence_step_ == kNotCovered)
    coalescence_step_ = step;
}

TokenSystem::TokenId TokenSystem::next_alive_after(TokenId after) const {
  if (alive_count_ == 0) throw std::logic_error("TokenSystem: no alive token");
  TokenId t = next_alive_[after];
  // Frozen pointers of dead tokens lead to strictly later-dying tokens, so
  // this terminates at an alive one (O(1) when `after` itself is alive).
  while (!alive_[t]) t = next_alive_[t];
  return t;
}

std::vector<Vertex> spread_token_starts(Vertex n, std::uint32_t k, Vertex base,
                                        bool distinct) {
  if (k == 0) throw std::invalid_argument("token count must be >= 1");
  if (distinct && k > n)
    throw std::invalid_argument("more tokens than vertices (starts must be distinct)");
  std::vector<Vertex> starts(k);
  for (std::uint32_t i = 0; i < k; ++i)
    starts[i] = static_cast<Vertex>(
        (base + static_cast<std::uint64_t>(i) * n / k) % n);
  return starts;
}

}  // namespace ewalk
