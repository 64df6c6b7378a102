// Deterministic, fast pseudo-random number generation.
//
// xoshiro256** seeded via splitmix64 — reproducible across platforms, unlike
// std::mt19937 + std::uniform_int_distribution whose outputs are
// implementation-defined. All synthetic databases and property tests use this
// so results are bit-identical everywhere.
#pragma once

#include <cmath>
#include <cstdint>

namespace swdual {

inline constexpr double kPi = 3.14159265358979323846;

/// splitmix64: used to expand a single 64-bit seed into generator state.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eedbead5eedbeadULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  std::uint64_t next() {
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

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift rejection.
  std::uint64_t below(std::uint64_t bound) {
    __uint128_t m = static_cast<__uint128_t>(next()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0ULL - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Standard normal via Box–Muller (one value per call; no caching).
  double normal() {
    double u1;
    do { u1 = uniform(); } while (u1 <= 0.0);
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * kPi * u2);
  }

  /// Log-normally distributed double (parameters of the underlying normal).
  double lognormal(double mu, double sigma) {
    return std::exp(mu + sigma * normal());
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

}  // namespace swdual
