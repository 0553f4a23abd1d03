#include "common/rng.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/geometry.hpp"
#include "common/units.hpp"

namespace biochip {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
constexpr std::uint64_t rotl(std::uint64_t v, int k) { return (v << k) | (v >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // Avoid the (astronomically unlikely) all-zero state.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() { return unit((*this)()); }

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  BIOCHIP_REQUIRE(lo <= hi, "uniform_int bounds inverted");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full 64-bit range
  // Rejection sampling to kill modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t v = (*this)();
  while (v >= limit) v = (*this)();
  return lo + static_cast<std::int64_t>(v % span);
}

void Rng::box_muller(std::uint64_t raw1, std::uint64_t raw2, double& z0, double& z1) {
  // u1 in (0,1] to avoid log(0).
  double u1 = unit(raw1);
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = unit(raw2);
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * constants::pi * u2;
  z0 = r * std::cos(theta);
  z1 = r * std::sin(theta);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  const std::uint64_t raw1 = (*this)();
  const std::uint64_t raw2 = (*this)();
  double z0 = 0.0;
  box_muller(raw1, raw2, z0, cached_normal_);
  has_cached_normal_ = true;
  return z0;
}

double Rng::normal(double mean, double sigma) { return mean + sigma * normal(); }

std::size_t Rng::add_normal(std::span<double> values, double sigma,
                            std::optional<double> cutoff) {
  BIOCHIP_REQUIRE(sigma >= 0.0, "noise sigma must be non-negative");
  BIOCHIP_REQUIRE(!cutoff || *cutoff < 0.0, "noise cutoff must be negative");
  // Each entry gets `mean + sigma * z` with mean 0.0 exactly as normal(0, σ)
  // forms it: the explicit 0.0 + keeps the sign of a zero sum identical.
  constexpr double mean = 0.0;
  const std::size_t n = values.size();
  std::size_t i = 0;
  if (n > 0 && has_cached_normal_) {
    has_cached_normal_ = false;
    values[i++] += mean + sigma * cached_normal_;
  }
  // A pair is skipped when both entries are quiet (>= cutoff/16) and its
  // radius sqrt(-2 ln u1) is below R = 0.98·(15/16)·|cutoff|/σ: its noise is
  // then smaller than 15/16 of |cutoff| (2% spare for rounding), so neither
  // entry could reach the cutoff, and a quiet entry left as it is stays
  // above it. With u1 = k·2^-53, k = raw >> 11 (k = 0 read as 1),
  //   radius < R  <=>  u1 > exp(-R²/2)  <=>  k > floor(exp(-R²/2)·2^53),
  // an integer compare per pair. Without a cutoff the bound is 2^53, which
  // no k exceeds.
  double quiet = 0.0, radius = 0.0;
  if (cutoff) {
    quiet = *cutoff / 16.0;
    radius = 0.98 * (quiet - *cutoff) / sigma;
  }
  const auto k_skip = static_cast<std::uint64_t>(
      std::floor(std::exp(-0.5 * radius * radius) * 0x1.0p53));
  std::size_t evaluated = 0;
  for (; i + 1 < n; i += 2) {
    const std::uint64_t raw1 = (*this)();
    const std::uint64_t raw2 = (*this)();
    if (std::max<std::uint64_t>(raw1 >> 11, 1) > k_skip && values[i] >= quiet &&
        values[i + 1] >= quiet)
      continue;
    double z0 = 0.0, z1 = 0.0;
    box_muller(raw1, raw2, z0, z1);
    values[i] += mean + sigma * z0;
    values[i + 1] += mean + sigma * z1;
    ++evaluated;
  }
  // An odd tail opens a pair whose second half stays cached for the next
  // draw, so it is always evaluated in full.
  if (i < n) {
    values[i] += normal(mean, sigma);
    ++evaluated;
  }
  return evaluated;
}

double Rng::lognormal_mean_cv(double mean, double cv) {
  BIOCHIP_REQUIRE(mean > 0.0, "lognormal mean must be positive");
  BIOCHIP_REQUIRE(cv >= 0.0, "coefficient of variation must be non-negative");
  if (cv == 0.0) return mean;
  const double s2 = std::log(1.0 + cv * cv);
  const double mu = std::log(mean) - 0.5 * s2;
  return std::exp(normal(mu, std::sqrt(s2)));
}

double Rng::exponential(double mean) {
  BIOCHIP_REQUIRE(mean > 0.0, "exponential mean must be positive");
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

bool Rng::bernoulli(double p) { return uniform() < clamp(p, 0.0, 1.0); }

std::uint64_t Rng::poisson(double mean) {
  BIOCHIP_REQUIRE(mean >= 0.0, "poisson mean must be non-negative");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth's product method.
    const double limit = std::exp(-mean);
    double prod = uniform();
    std::uint64_t n = 0;
    while (prod > limit) {
      prod *= uniform();
      ++n;
    }
    return n;
  }
  // Normal approximation with continuity correction; adequate for model use.
  const double v = normal(mean, std::sqrt(mean));
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
}

Rng Rng::split() { return Rng((*this)() ^ 0xD2B74407B1CE6E93ull); }

Rng Rng::fork(std::uint64_t stream_id) const {
  // Fold the full 256-bit parent state and the counter through splitmix64 so
  // nearby stream ids (0,1,2,...) land on unrelated seeds. Distinct from
  // split()'s constant to keep the two derivation families apart.
  std::uint64_t x = stream_id ^ 0xA0761D6478BD642Full;
  std::uint64_t seed = splitmix64(x);
  seed ^= s_[0] + splitmix64(x);
  seed ^= rotl(s_[1], 17) + splitmix64(x);
  seed ^= rotl(s_[2], 31) + splitmix64(x);
  seed ^= rotl(s_[3], 47) + splitmix64(x);
  return Rng(seed);
}

}  // namespace biochip
