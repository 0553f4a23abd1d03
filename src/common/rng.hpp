#pragma once
/// \file rng.hpp
/// \brief Deterministic pseudo-random number generation.
///
/// Every stochastic component in the framework takes an explicit `Rng&` so
/// that experiments are reproducible from a single seed. The generator is
/// xoshiro256++ (Blackman & Vigna), which is fast, has a 2^256-1 period, and
/// is fully specified here (no standard-library distribution variability).

#include <array>
#include <cstdint>
#include <optional>
#include <span>

namespace biochip {

/// xoshiro256++ PRNG with splitmix64 seeding. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed deterministically; two Rng with the same seed produce identical streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box-Muller (cached pair).
  double normal();
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double sigma);
  /// Adds zero-mean normal noise to every entry of `values`, in order:
  /// bitwise `v += normal(0.0, sigma)` per entry, leaving the generator where
  /// those calls leave it. With a `cutoff` (< 0) the noise is exact only where
  /// it can take an entry to or below the cutoff: a Box-Muller pair whose
  /// radius cannot bring either of its two entries down to the cutoff is
  /// drawn but not evaluated, and those entries keep their values. Then
  /// every entry whose dense value is <= cutoff is still bitwise that value,
  /// every other entry stays above the cutoff, and the draws after the call
  /// are unchanged. Returns the number of Box-Muller pairs evaluated (an
  /// entry-time cached normal is not a pair).
  std::size_t add_normal(std::span<double> values, double sigma,
                         std::optional<double> cutoff = std::nullopt);
  /// Log-normal such that the *resulting* distribution has the given
  /// arithmetic mean and coefficient of variation (sigma/mean).
  double lognormal_mean_cv(double mean, double cv);
  /// Exponential with the given mean. Requires mean > 0.
  double exponential(double mean);
  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool bernoulli(double p);
  /// Poisson-distributed count with the given mean (Knuth for small, normal
  /// approximation for large means).
  std::uint64_t poisson(double mean);

  /// Derive an independent child stream (for per-agent/per-trial streams).
  /// Advances this generator; successive calls give distinct children.
  Rng split();

  /// Counter-based stream splitting: derive the `stream_id`-th child WITHOUT
  /// advancing this generator. The child depends only on (parent state,
  /// stream_id), so a population fanned out over worker threads gets the
  /// same per-member stream no matter how the work is partitioned or
  /// ordered — the foundation for deterministic parallel physics.
  Rng fork(std::uint64_t stream_id) const;

 private:
  /// The 53 high bits of a raw draw as a double in [0, 1).
  static double unit(std::uint64_t raw) { return static_cast<double>(raw >> 11) * 0x1.0p-53; }
  /// The two normals of one Box-Muller transform of two raw draws.
  static void box_muller(std::uint64_t raw1, std::uint64_t raw2, double& z0, double& z1);

  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace biochip
