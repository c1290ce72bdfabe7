// Random number generation for ewalk.
//
// Two engines are provided behind an identical method surface:
//   * Rng         — xoshiro256** (Blackman/Vigna), the default engine. Fast,
//                   64-bit state-splittable; used by all walk processes.
//   * MersenneRng — std::mt19937_64 wrapper. The paper's experiments used the
//                   (Python) Mersenne Twister; this adapter lets tests and
//                   benches reproduce with the same generator family.
//
// Both are deterministic given a seed. Rng::split() derives an independent
// child stream (SplitMix64 over a stream counter), which the experiment
// harness uses to give each parallel trial its own reproducible stream.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

namespace ewalk {

/// SplitMix64 step: the canonical 64-bit mixer used for seeding and stream
/// derivation. Advances `state` and returns the next output.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Default engine: xoshiro256**. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from SplitMix64(seed).
  explicit Rng(std::uint64_t seed = 0xE5A1CEDULL) noexcept { reseed(seed); }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& w : state_) w = splitmix64(sm);
  }

  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Unbiased uniform draw from {0, 1, ..., bound-1}. Precondition: bound > 0.
  std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform real in [0, 1) with 53 bits of precision.
  double uniform_real() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli(p) draw.
  bool bernoulli(double p) noexcept { return uniform_real() < p; }

  /// Derives an independent child stream; deterministic in (this state, n-th call).
  Rng split() noexcept {
    std::uint64_t s = next_u64();
    return Rng(splitmix64(s));
  }

  /// Fisher–Yates shuffle. The swap target for position i - 1 is a draw
  /// of uniform(i) that depends on nothing the swaps write, so the targets
  /// are drawn kAhead swaps early and prefetched: on an array larger than
  /// the cache the random reads overlap. The draws, the permutation and
  /// the stream's state afterwards are those of the plain loop.
  template <typename T>
  void shuffle(std::span<T> values) noexcept {
    constexpr std::size_t kAhead = 32;
    const std::size_t n = values.size();
    if (n < 2) return;
    // Swap k (0 <= k < n - 1) exchanges values[n - 1 - k] with a draw of
    // uniform(n - k); ring[k % kAhead] holds that draw until swap k.
    std::array<std::size_t, kAhead> ring;
    const auto draw = [&](std::size_t k) {
      const auto j = static_cast<std::size_t>(uniform(n - k));
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(values.data() + j, 1);
#endif
      ring[k % kAhead] = j;
    };
    const std::size_t swaps = n - 1;
    for (std::size_t k = 0; k < kAhead && k < swaps; ++k) draw(k);
    for (std::size_t k = 0; k < swaps; ++k) {
      const std::size_t j = ring[k % kAhead];
      if (k + kAhead < swaps) draw(k + kAhead);
      using std::swap;
      swap(values[n - 1 - k], values[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

/// std::mt19937_64 behind the same method surface as Rng.
class MersenneRng {
 public:
  using result_type = std::uint64_t;

  explicit MersenneRng(std::uint64_t seed = 0x6D743139ULL) : engine_(seed) {}

  static constexpr result_type min() noexcept { return std::mt19937_64::min(); }
  static constexpr result_type max() noexcept { return std::mt19937_64::max(); }

  result_type operator()() { return engine_(); }
  std::uint64_t next_u64() { return engine_(); }

  std::uint64_t uniform(std::uint64_t bound);
  double uniform_real() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }
  bool bernoulli(double p) { return uniform_real() < p; }

 private:
  std::mt19937_64 engine_;
};

/// Derives `count` independent Rng streams from a master seed. Stream i is a
/// pure function of (master_seed, i) — parallel trials stay reproducible
/// regardless of thread scheduling.
std::vector<Rng> derive_streams(std::uint64_t master_seed, std::size_t count);

}  // namespace ewalk
