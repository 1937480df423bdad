#pragma once

// Sampling distributions over the canonical PhiloxEngine.
//
// Everything here consumes a *bounded, deterministic* number of engine draws
// per call wherever possible (inverse-CDF normal, conditional-binomial
// multinomial); rejection samplers (gamma, large-mean Poisson, large-n
// binomial) consume a variable but stream-local number of draws. Since each
// simulation entity owns its own Philox stream, variable consumption never
// leaks randomness across entities.

#include <cstdint>
#include <span>
#include <vector>

#include "random/philox.hpp"

namespace epismc::rng {

/// Canonical engine type used throughout the library.
using Engine = PhiloxEngine;

// ---------------------------------------------------------------------------
// Uniform primitives (header-inline: they are the innermost hot path).
// ---------------------------------------------------------------------------

/// Uniform double in [0, 1) with 53 random bits.
[[nodiscard]] inline double uniform_double(Engine& eng) {
  return static_cast<double>(eng() >> 11) * 0x1.0p-53;
}

/// Uniform double in (0, 1): safe as input to log() and quantile functions.
[[nodiscard]] inline double uniform_double_oo(Engine& eng) {
  return (static_cast<double>(eng() >> 12) + 0.5) * 0x1.0p-52;
}

/// Uniform double in [lo, hi).
[[nodiscard]] inline double uniform_range(Engine& eng, double lo, double hi) {
  return lo + (hi - lo) * uniform_double(eng);
}

/// Uniform integer in [0, bound) via Lemire's multiply-shift rejection.
[[nodiscard]] std::uint64_t uniform_int(Engine& eng, std::uint64_t bound);

/// Bernoulli(p) draw.
[[nodiscard]] inline bool bernoulli(Engine& eng, double p) {
  return uniform_double(eng) < p;
}

// ---------------------------------------------------------------------------
// Gaussian and friends.
// ---------------------------------------------------------------------------

/// Standard normal CDF.
[[nodiscard]] double normal_cdf(double x);

/// Standard normal quantile function (inverse CDF). Acklam's rational
/// approximation polished with two Halley refinement steps; accurate to a
/// few ulp across (0, 1).
[[nodiscard]] double normal_quantile(double p);

/// Standard normal draw via inverse CDF: exactly one engine draw, which
/// keeps stream consumption deterministic for checkpoint reproducibility.
[[nodiscard]] double normal(Engine& eng);

/// Normal(mean, sd) draw.
[[nodiscard]] inline double normal(Engine& eng, double mean, double sd) {
  return mean + sd * normal(eng);
}

/// Exponential(rate) draw, rate > 0.
[[nodiscard]] double exponential(Engine& eng, double rate);

/// Gamma(shape, scale) draw via Marsaglia-Tsang squeeze; shape > 0.
[[nodiscard]] double gamma(Engine& eng, double shape, double scale = 1.0);

/// Beta(a, b) draw via two gammas; a, b > 0.
[[nodiscard]] double beta(Engine& eng, double a, double b);

// ---------------------------------------------------------------------------
// Discrete distributions.
// ---------------------------------------------------------------------------

/// Poisson(mean) draw; multiplication method below mean 10, PTRS
/// (Hoermann's transformed rejection) above.
[[nodiscard]] std::int64_t poisson(Engine& eng, double mean);

/// Binomial(n, p) draw; BINV inversion when n*min(p,1-p) < 30, BTPE
/// (Kachitvichyanukul & Schmeiser 1988) otherwise. O(1) in n for the
/// large regime, which matters: the epidemic simulator thins populations
/// of millions every step. MultinomialPlan draws through the same sampler.
[[nodiscard]] std::int64_t binomial(Engine& eng, std::int64_t n, double p);

/// Multinomial split over a fixed probability vector by conditional
/// binomials, with everything that depends only on the probabilities built
/// once: the conditional probability of each bucket (sequential total,
/// clamp(p[i] / mass), mass -= p[i]), the bucket after which the remaining
/// mass reaches zero, and, per drawn bucket, the table q^k (k < kPowN) that
/// BINV otherwise recomputes with std::pow on every call. A draw consumes
/// the same uniforms and returns the same counts as conditional binomial()
/// calls over the raw probabilities would.
class MultinomialPlan {
 public:
  /// Cohorts below kPowN start BINV from the table instead of std::pow.
  static constexpr std::int64_t kPowN = 64;

  MultinomialPlan() = default;

  /// `probs` need not be normalized; they must be finite, non-negative and
  /// not all zero (std::invalid_argument otherwise).
  explicit MultinomialPlan(std::span<const double> probs);

  /// Number of buckets.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Partition `n` individuals across the buckets: calls emit(i, count) for
  /// every bucket i that receives count > 0, in increasing i. n <= 0 draws
  /// nothing.
  template <class Emit>
  void draw(Engine& eng, std::int64_t n, Emit&& emit) const {
    std::int64_t remaining = n;
    for (std::size_t i = 0; i < buckets_.size() && remaining > 0; ++i) {
      const std::int64_t x = draw_bucket(eng, i, remaining);
      if (x > 0) {
        emit(i, x);
        remaining -= x;
      }
    }
    if (remaining > 0) emit(size_ - 1, remaining);
  }

 private:
  /// Conditional binomial draw for bucket i given `n` still unassigned.
  [[nodiscard]] std::int64_t draw_bucket(Engine& eng, std::size_t i,
                                         std::int64_t n) const;

  /// Conditional probability c of a bucket, as binomial() splits it.
  struct Bucket {
    double pp = 0.0;       // min(c, 1 - c): the probability BINV/BTPE draw
    bool flipped = false;  // c > 0.5: the draw counts the complement
  };

  std::size_t size_ = 0;
  std::vector<Bucket> buckets_;  // drawn buckets; the last one takes the rest
  std::vector<double> pow_q_;    // pow_q_[i * kPowN + k] = (1 - pp_i)^k
};

}  // namespace epismc::rng
