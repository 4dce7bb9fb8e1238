// Deterministic, seedable random number generation.
//
// All stochastic components (random regular graphs, workload generators,
// ECMP hashing salts, simulation arrival processes) draw from Rng so that
// every experiment is reproducible from a single 64-bit seed.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/error.h"

namespace spineless {

// splitmix64: used to expand a user seed into xoshiro state and as a cheap
// stateless mixing function for ECMP-style hashing.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// xoshiro256** — fast, high-quality, 256-bit state PRNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5311e55ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t x = seed;
    for (auto& s : state_) s = x = splitmix64(x);
  }

  std::uint64_t next() noexcept {
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

  // Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound) noexcept {
    // Lemire's nearly-divisionless bounded rejection.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform real in [0, 1).
  double uniform_real() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  // Uniform real in [lo, hi).
  double uniform_real(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform_real();
  }

  // Pareto variate with shape alpha and scale x_m (support [x_m, inf)).
  double pareto(double alpha, double xm) noexcept;

  // Pareto variate parameterized by mean (requires alpha > 1).
  double pareto_with_mean(double alpha, double mean) noexcept;

  // Exponential variate with the given mean.
  double exponential(double mean) noexcept;

  // Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = uniform(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  // Checkpoint support: a restored stream must resume mid-sequence, not
  // re-seed, or every post-restore draw diverges from an uninterrupted run.
  std::array<std::uint64_t, 4> state() const noexcept {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    for (int i = 0; i < 4; ++i) state_[i] = s[static_cast<std::size_t>(i)];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

// Zipf-distributed sampler over ranks {0,..,n-1} with exponent alpha,
// implemented by inverse-CDF over the precomputed normalized weights.
// Used by the FB-like skewed traffic generator.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double alpha);

  std::size_t operator()(Rng& rng) const noexcept;

  // Normalized probability of rank i.
  double probability(std::size_t i) const { return prob_.at(i); }
  std::size_t size() const noexcept { return prob_.size(); }

 private:
  std::vector<double> prob_;  // probability per rank
  std::vector<double> cdf_;   // inclusive prefix sums
};

}  // namespace spineless
