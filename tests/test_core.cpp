// Unit tests for core/: rng, stats, units, error handling.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/error.hpp"
#include "core/log.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"

namespace dynmo {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitIndependentStreams) {
  Rng root(7);
  Rng s1 = root.split(1);
  Rng s2 = root.split(2);
  Rng s1b = Rng(7).split(1);
  EXPECT_EQ(s1(), s1b());
  EXPECT_NE(s1(), s2());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(4);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const auto v = rng.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStats st;
  for (int i = 0; i < 50000; ++i) st.add(rng.normal());
  EXPECT_NEAR(st.mean(), 0.0, 0.03);
  EXPECT_NEAR(st.stddev(), 1.0, 0.03);
}

TEST(Rng, LognormalPositive) {
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, ZipfSkewsLow) {
  Rng rng(13);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.zipf(16, 1.2)];
  EXPECT_GT(counts[0], counts[8]);
  EXPECT_GT(counts[0], counts[15]);
}

// zipf(n, s) for 0 < s <= 1 never returned: the rejection sampler is only
// valid for s > 1.  Both exponents must return inside [0, n) and follow the
// pmf P(k) ∝ (k+1)^-s (chi-square goodness of fit at alpha = 1e-4).
TEST(Rng, ZipfAtMostOneMatchesPmf) {
  constexpr std::uint64_t n = 16;
  constexpr int samples = 200000;
  for (const double s : {1.0, 0.8}) {
    SCOPED_TRACE("s=" + std::to_string(s));
    Rng rng(15);
    std::vector<double> hist(n, 0.0);
    for (int i = 0; i < samples; ++i) {
      const auto k = rng.zipf(n, s);
      ASSERT_LT(k, n);
      hist[k] += 1.0;
    }
    double mass = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) {
      mass += std::pow(static_cast<double>(k), -s);
    }
    double chi2 = 0.0;
    for (std::uint64_t k = 0; k < n; ++k) {
      const double expected =
          samples * std::pow(static_cast<double>(k + 1), -s) / mass;
      const double d = hist[k] - expected;
      chi2 += d * d / expected;
    }
    // Wilson–Hilferty upper quantile of chi-square(n - 1) at alpha = 1e-4.
    const double df = static_cast<double>(n - 1);
    const double t =
        1.0 - 2.0 / (9.0 * df) + 3.719 * std::sqrt(2.0 / (9.0 * df));
    EXPECT_LT(chi2, df * t * t * t);
  }
}

TEST(Rng, ZipfZeroExponentIsUniformish) {
  Rng rng(14);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.zipf(8, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 600);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(15);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, CategoricalThrowsOnAllZero) {
  Rng rng(16);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW((void)rng.categorical(w), Error);
}

// ---------------------------------------------------------------- binomial

TEST(RngBinomial, EdgeCases) {
  Rng rng(40);
  EXPECT_EQ(rng.binomial(0, 0.3), 0u);
  EXPECT_EQ(rng.binomial(0, 1.0), 0u);
  EXPECT_EQ(rng.binomial(1000, 0.0), 0u);
  EXPECT_EQ(rng.binomial(1000, 1.0), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_LE(rng.binomial(3, 0.5), 3u);
}

TEST(RngBinomial, HighPIsMirrorOfLowP) {
  // p > 0.5 draws the failures at 1 − p: the same stream, mirrored.
  for (std::uint64_t n : {7u, 60u, 5000u}) {
    for (double p : {0.55, 0.7, 0.93}) {
      Rng hi(41), lo(41);
      for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(hi.binomial(n, p), n - lo.binomial(n, 1.0 - p));
      }
    }
  }
}

TEST(RngBinomial, InvalidProbabilityThrows) {
  Rng rng(42);
  EXPECT_THROW((void)rng.binomial(10, std::nan("")), Error);
  EXPECT_THROW((void)rng.binomial(10, -0.1), Error);
  EXPECT_THROW((void)rng.binomial(10, 1.5), Error);
  EXPECT_THROW((void)rng.binomial(0, std::nan("")), Error);
}

/// Draws `samples` Binomial(n, p) variates and checks them against the
/// exact law: mean and variance by z-score (|z| < 5), and a chi-square
/// goodness-of-fit against the pmf at alpha = 1e-4.
void check_binomial_law(std::uint64_t n, double p, std::uint64_t seed,
                        int samples) {
  SCOPED_TRACE("n=" + std::to_string(n) + " p=" + std::to_string(p));
  Rng rng(seed);
  std::vector<double> hist(n + 1, 0.0);
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < samples; ++i) {
    const auto x = rng.binomial(n, p);
    ASSERT_LE(x, n);
    hist[x] += 1.0;
    const double xd = static_cast<double>(x);
    sum += xd;
    sum_sq += xd * xd;
  }
  const double N = samples;
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double mu = nd * p;
  const double var = nd * p * q;
  const double mean = sum / N;
  const double s2 = (sum_sq - N * mean * mean) / (N - 1.0);
  EXPECT_LT(std::fabs(mean - mu) / std::sqrt(var / N), 5.0);
  // Var(s²) ≈ (μ4 − σ⁴)/N with the binomial's μ4 = npq(1 + 3pq(n − 2)).
  const double mu4 = var * (1.0 + 3.0 * p * q * (nd - 2.0));
  EXPECT_LT(std::fabs(s2 - var) / std::sqrt((mu4 - var * var) / N), 5.0);

  // Chi-square over bins of consecutive k, each grown until its expected
  // count reaches 5; a short remainder joins the last bin.
  std::vector<double> expected, observed;
  double e_acc = 0.0, o_acc = 0.0;
  for (std::uint64_t k = 0; k <= n; ++k) {
    const double kd = static_cast<double>(k);
    e_acc += N * std::exp(std::lgamma(nd + 1.0) - std::lgamma(kd + 1.0) -
                          std::lgamma(nd - kd + 1.0) + kd * std::log(p) +
                          (nd - kd) * std::log(q));
    o_acc += hist[k];
    if (e_acc >= 5.0) {
      expected.push_back(e_acc);
      observed.push_back(o_acc);
      e_acc = o_acc = 0.0;
    }
  }
  ASSERT_GE(expected.size(), 3u);
  expected.back() += e_acc;
  observed.back() += o_acc;
  double chi2 = 0.0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const double d = observed[i] - expected[i];
    chi2 += d * d / expected[i];
  }
  // Wilson–Hilferty upper quantile of chi-square(df) at alpha = 1e-4.
  const double df = static_cast<double>(expected.size() - 1);
  const double z = 3.719;
  const double t = 1.0 - 2.0 / (9.0 * df) + z * std::sqrt(2.0 / (9.0 * df));
  EXPECT_LT(chi2, df * t * t * t) << "bins=" << expected.size();
}

TEST(RngBinomial, InversionRegimeMatchesPmf) {
  check_binomial_law(40, 0.1, 43, 400000);      // mean 4
  check_binomial_law(19, 0.5, 44, 400000);      // mean 9.5, largest p
  check_binomial_law(30, 0.9, 50, 400000);      // mirrored to p = 0.1
  check_binomial_law(3000, 0.001, 45, 400000);  // mean 3, long support
}

TEST(RngBinomial, BtrsRegimeMatchesPmf) {
  check_binomial_law(100, 0.1, 46, 400000);  // mean 10: BTRS threshold
  check_binomial_law(1000, 0.3, 47, 400000);
  check_binomial_law(200, 0.8, 48, 400000);  // mirrored to p = 0.2
  check_binomial_law(4096, 0.5, 49, 400000);
}

TEST(RunningStats, MatchesBatch) {
  Rng rng(17);
  RunningStats st;
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    st.add(x);
    xs.push_back(x);
  }
  EXPECT_NEAR(st.mean(), mean_of(xs), 1e-9);
  EXPECT_NEAR(st.stddev(), stddev_of(xs), 1e-9);
  EXPECT_DOUBLE_EQ(st.min(), min_of(xs));
  EXPECT_DOUBLE_EQ(st.max(), max_of(xs));
}

TEST(RunningStats, MergeEqualsCombined) {
  Rng rng(18);
  RunningStats a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(2.0, 3.0);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile_of(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 50), 2.5);
}

TEST(Stats, LoadImbalanceEq2) {
  // Paper Eq. (2): (Lmax - Lmin) / mean(L).
  std::vector<double> loads = {2.0, 4.0, 6.0};
  EXPECT_NEAR(load_imbalance(loads), (6.0 - 2.0) / 4.0, 1e-12);
  std::vector<double> balanced = {3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(load_imbalance(balanced), 0.0);
  EXPECT_DOUBLE_EQ(load_imbalance({}), 0.0);
}

TEST(Stats, MaxOverMean) {
  std::vector<double> loads = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(max_over_mean(loads), 1.5);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2 KiB");
}

TEST(Units, FormatSeconds) {
  EXPECT_EQ(format_seconds(0.002), "2 ms");
  EXPECT_EQ(format_seconds(3.0), "3 s");
}

TEST(Log, SinkCapturesFormattedLines) {
  std::vector<std::string> lines;
  Logger::instance().set_sink(
      [&lines](LogLevel, std::string_view line) { lines.emplace_back(line); });
  const LogLevel before = Logger::instance().level();
  Logger::instance().set_level(LogLevel::Info);
  DYNMO_LOG(Info) << "captured " << 7;
  DYNMO_LOG(Debug) << "below the level, dropped";
  Logger::instance().set_level(before);
  Logger::instance().set_sink({});  // restore stderr

  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("[dynmo INFO "), std::string::npos);
  EXPECT_NE(lines[0].find("captured 7"), std::string::npos);
}

TEST(Log, PrefixIsIso8601Utc) {
  std::vector<std::string> lines;
  Logger::instance().set_sink(
      [&lines](LogLevel, std::string_view line) { lines.emplace_back(line); });
  const LogLevel before = Logger::instance().level();
  Logger::instance().set_level(LogLevel::Warn);
  DYNMO_LOG(Warn) << "stamp check";
  Logger::instance().set_level(before);
  Logger::instance().set_sink({});

  ASSERT_EQ(lines.size(), 1u);
  // 2026-08-08T12:34:56.789Z — fixed-width ISO-8601 with milliseconds.
  const std::string& l = lines[0];
  ASSERT_GE(l.size(), 24u);
  EXPECT_EQ(l[4], '-');
  EXPECT_EQ(l[7], '-');
  EXPECT_EQ(l[10], 'T');
  EXPECT_EQ(l[13], ':');
  EXPECT_EQ(l[16], ':');
  EXPECT_EQ(l[19], '.');
  EXPECT_EQ(l[23], 'Z');
  for (int i : {0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 22}) {
    EXPECT_TRUE(l[static_cast<std::size_t>(i)] >= '0' &&
                l[static_cast<std::size_t>(i)] <= '9')
        << "position " << i << " in " << l;
  }
  EXPECT_EQ(l[24], ' ');
  EXPECT_NE(l.find("[dynmo WARN "), std::string::npos);
}

TEST(Error, CheckThrowsWithContext) {
  try {
    DYNMO_CHECK(1 == 2, "value " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("42"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(DYNMO_CHECK(true, "never"));
}

}  // namespace
}  // namespace dynmo
