// Deterministic random number generation for simulation.
//
// All stochastic components of the simulator (fault Monte Carlo, synthetic
// workload generators, replacement tie-breaking) draw from Xoshiro256**,
// seeded through SplitMix64 so that a single 64-bit experiment seed expands
// into a full 256-bit state.  Xoshiro256** supports an efficient jump()
// operation that advances the stream by 2^128 draws, which we use to derive
// statistically independent per-thread / per-core / per-system sub-streams
// from one root seed.  Every experiment in this repository is exactly
// reproducible from its seed.
#pragma once

#include <cmath>
#include <cstdint>

namespace eccsim {

/// SplitMix64: used only to expand a user seed into generator state.
/// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: the simulator's workhorse generator.
/// Reference: Blackman & Vigna, "Scrambled linear pseudorandom number
/// generators", ACM TOMS 2021.  Period 2^256 - 1.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  friend bool operator==(const Rng&, const Rng&) = default;

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound <= 1) return 0;
    // 128-bit multiply-shift; draws whose low word is below the threshold
    // (-bound) % bound are rejected, removing the final sliver of bias.
    // The threshold is below `bound`, so the division is needed only when
    // the low word is: for simulation bounds (<< 2^64) almost never.
    unsigned __int128 m = static_cast<unsigned __int128>(next()) * bound;
    if (static_cast<std::uint64_t>(m) < bound) {
      const std::uint64_t threshold = (-bound) % bound;
      while (static_cast<std::uint64_t>(m) < threshold) {
        m = static_cast<unsigned __int128>(next()) * bound;
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// True with probability p.
  bool bernoulli(double p) { return next_double() < p; }

  /// Exponentially distributed variate with the given rate (1/mean).
  /// Used for fault inter-arrival times (the paper assumes exponential
  /// failure distributions, Sec. II / Fig. 2).
  double exponential(double rate) {
    // 1 - u in (0,1] avoids log(0).
    return -std::log(1.0 - next_double()) / rate;
  }

  /// Advances the stream by 2^128 draws.  Streams separated by jump() are
  /// independent for any realistic simulation length.
  void jump() {
    static constexpr std::uint64_t kJump[] = {
        0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
        0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::uint64_t jump : kJump) {
      for (int b = 0; b < 64; ++b) {
        if (jump & (1ULL << b)) {
          s0 ^= s_[0];
          s1 ^= s_[1];
          s2 ^= s_[2];
          s3 ^= s_[3];
        }
        next();
      }
    }
    s_[0] = s0;
    s_[1] = s1;
    s_[2] = s2;
    s_[3] = s3;
  }

  /// Returns a generator for sub-stream `index` of this stream: a copy
  /// jumped forward `index + 1` times.  Deterministic fan-out for
  /// per-core / per-simulated-system generators.
  Rng substream(unsigned index) const {
    Rng r = *this;
    for (unsigned i = 0; i <= index; ++i) r.jump();
    return r;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace eccsim
