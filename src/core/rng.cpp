#include "core/rng.hpp"

#include <cmath>
#include <numbers>

#include "core/error.hpp"

namespace dynmo {

double Rng::normal() {
  // Box–Muller; rejects u1 == 0 to avoid log(0).
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  DYNMO_CHECK(n > 0, "zipf over empty support");
  if (s <= 0.0) return uniform_int(n);
  if (s <= 1.0) {
    // The rejection sampler below needs s > 1: at s = 1 its envelope
    // constant b − 1 is 0, and below 1 every proposal floors to x = 0 and
    // is rejected.  Invert the finite-support CDF exactly instead.
    double mass = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) {
      mass += std::pow(static_cast<double>(k), -s);
    }
    double r = uniform() * mass;
    for (std::uint64_t k = 1; k < n; ++k) {
      r -= std::pow(static_cast<double>(k), -s);
      if (r < 0.0) return k - 1;
    }
    return n - 1;
  }
  // Inverse-CDF by rejection (Devroye).  Fine for the n (<= few thousand
  // experts/buckets) we use; exactness matters more than speed here.
  const double b = std::pow(2.0, s - 1.0);
  for (;;) {
    const double u = uniform();
    const double v = uniform();
    const double x = std::floor(std::pow(u, -1.0 / (s - 1.0 + 1e-12)));
    if (x < 1.0 || x > static_cast<double>(n)) continue;
    const double t = std::pow(1.0 + 1.0 / x, s - 1.0);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
      return static_cast<std::uint64_t>(x) - 1;
    }
  }
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  DYNMO_CHECK(!weights.empty(), "categorical over empty weights");
  double total = 0.0;
  for (double w : weights) total += w;
  DYNMO_CHECK(total > 0.0, "categorical weights sum to zero");
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return i;
  }
  return weights.size() - 1;
}

namespace {

/// log(k!) − [(k + ½)·log(k + 1) − (k + 1) + ½·log(2π)]: the remainder of
/// Stirling's series for log(k!), as BTRS's acceptance test needs it.
double stirling_tail(double k) {
  if (k < 10.0) {
    double log_fact = 0.0;
    for (double i = 2.0; i <= k; i += 1.0) log_fact += std::log(i);
    return log_fact - (k + 0.5) * std::log(k + 1.0) + (k + 1.0) -
           0.5 * std::log(2.0 * std::numbers::pi);
  }
  const double kp1 = k + 1.0;
  const double kp1sq = kp1 * kp1;
  return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / kp1sq) / kp1sq) / kp1;
}

}  // namespace

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  DYNMO_CHECK(p >= 0.0 && p <= 1.0,
              "binomial probability " << p << " outside [0, 1]");
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  if (p > 0.5) return n - binomial(n, 1.0 - p);

  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  if (nd * p < 10.0) {
    // Inversion: walk the pmf from 0 with the ratio recurrence.  q^n
    // stays above 0.5^20 here, so the walk starts above zero.  A walk
    // that runs off the end of the support or into pmf underflow (only
    // possible by rounding) restarts with a fresh uniform.
    const double q_n = std::exp(nd * std::log(q));
    const double ratio = p / q;
    for (;;) {
      double u = uniform();
      double pmf = q_n;
      std::uint64_t x = 0;
      while (u > pmf && x < n && pmf > 0.0) {
        u -= pmf;
        ++x;
        pmf *= ratio * (nd - static_cast<double>(x) + 1.0) /
               static_cast<double>(x);
      }
      if (u <= pmf) return x;
    }
  }

  // BTRS (Hörmann 1993, "The generation of binomial random variates").
  const double spq = std::sqrt(nd * p * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double v_r = 0.92 - 4.2 / b;
  const double r = p / q;
  const double m = std::floor((nd + 1.0) * p);
  for (;;) {
    const double u = uniform() - 0.5;
    const double v = uniform();
    const double us = 0.5 - std::fabs(u);
    const double k = std::floor((2.0 * a / us + b) * u + c);
    if (k < 0.0 || k > nd) continue;
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(k);
    // Exact acceptance: log(v·alpha/(a/us² + b)) against
    // log[pmf(k)/pmf(m)], the log-factorials written as Stirling terms.
    const double lhs = std::log(v * alpha / (a / (us * us) + b));
    const double rhs =
        (m + 0.5) * std::log((m + 1.0) / (r * (nd - m + 1.0))) +
        (nd + 1.0) * std::log((nd - m + 1.0) / (nd - k + 1.0)) +
        (k + 0.5) * std::log(r * (nd - k + 1.0) / (k + 1.0)) +
        stirling_tail(m) + stirling_tail(nd - m) - stirling_tail(k) -
        stirling_tail(nd - k);
    if (lhs <= rhs) return static_cast<std::uint64_t>(k);
  }
}

}  // namespace dynmo
