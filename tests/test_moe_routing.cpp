// Count-level MoE routing against the per-token reference loop
// (tests/moe_token_loop.hpp).  The two draw different random streams, so
// the contract is equality in distribution: over many fixed seeds, the
// per-expert means, variances and pairwise covariances agree, and so does
// the distribution of the bottleneck factor (two-sample KS).  Seeds are
// fixed, so every test here is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "dynamic/moe.hpp"
#include "moe_token_loop.hpp"

namespace dynmo::dynamic {
namespace {

using Histograms = std::vector<std::vector<std::size_t>>;

/// Per-comparison |z| bound.  Two-sided p ≈ 5.7e-7 per comparison keeps
/// the family-wise false-alarm rate below 1e-3 over the few hundred
/// comparisons in this file.
constexpr double kZ = 5.0;
/// Two-sample KS critical coefficient c(alpha) = sqrt(-ln(alpha/2)/2) at
/// alpha = 0.001.
constexpr double kKsCoefficient = 1.9495;

struct Moments {
  std::vector<double> mean;
  std::vector<double> var;     ///< sample variance per expert
  std::vector<double> var_se;  ///< standard error of var
  std::vector<std::vector<double>> cov, cov_se;
};

Moments moments(const Histograms& h) {
  const std::size_t E = h.front().size();
  const double N = static_cast<double>(h.size());
  Moments m;
  m.mean.assign(E, 0.0);
  for (const auto& c : h) {
    for (std::size_t e = 0; e < E; ++e) m.mean[e] += static_cast<double>(c[e]);
  }
  for (double& v : m.mean) v /= N;
  m.var.assign(E, 0.0);
  m.var_se.assign(E, 0.0);
  m.cov.assign(E, std::vector<double>(E, 0.0));
  m.cov_se.assign(E, std::vector<double>(E, 0.0));
  std::vector<double> m4(E, 0.0);
  std::vector<std::vector<double>> prod_sq(E, std::vector<double>(E, 0.0));
  for (const auto& c : h) {
    for (std::size_t i = 0; i < E; ++i) {
      const double di = static_cast<double>(c[i]) - m.mean[i];
      m.var[i] += di * di;
      m4[i] += di * di * di * di;
      for (std::size_t j = i + 1; j < E; ++j) {
        const double p = di * (static_cast<double>(c[j]) - m.mean[j]);
        m.cov[i][j] += p;
        prod_sq[i][j] += p * p;
      }
    }
  }
  for (std::size_t i = 0; i < E; ++i) {
    const double v = m.var[i] / N;
    m.var[i] /= N - 1.0;
    m.var_se[i] = std::sqrt(std::max(0.0, m4[i] / N - v * v) / N);
    for (std::size_t j = i + 1; j < E; ++j) {
      const double cv = m.cov[i][j] / N;
      m.cov[i][j] /= N - 1.0;
      m.cov_se[i][j] = std::sqrt(std::max(0.0, prod_sq[i][j] / N - cv * cv) / N);
    }
  }
  return m;
}

/// |a − b| within kZ combined standard errors; exact equality when both
/// sides are degenerate (S-BASE can pin an expert at capacity).
void expect_close(double a, double se_a, double b, double se_b,
                  const std::string& what) {
  const double se = std::sqrt(se_a * se_a + se_b * se_b);
  if (se == 0.0) {
    EXPECT_EQ(a, b) << what;
  } else {
    EXPECT_LT(std::fabs(a - b) / se, kZ) << what << ": " << a << " vs " << b;
  }
}

double ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::size_t i = 0, j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == x) ++i;
    while (j < b.size() && b[j] == x) ++j;
    d = std::max(d, std::fabs(static_cast<double>(i) / a.size() -
                              static_cast<double>(j) / b.size()));
  }
  return d;
}

struct Scenario {
  const char* name;
  model::MoeConfig model;
  MoeRouting routing;
  std::size_t tokens;
  int seeds;
};

/// Routes `seeds` microbatches of a real layer gate with both samplers
/// (independent seed sets) and compares them in distribution.
void check_equivalent(const Scenario& s) {
  SCOPED_TRACE(s.name);
  const auto m = model::make_moe(s.model, s.name);
  MoeEngineConfig cfg;
  cfg.routing = s.routing;
  const MoeEngine eng(m, cfg);
  const std::size_t layer = 1;
  const std::size_t k = m.layers[layer].top_k;
  const auto gate = eng.expert_popularity(layer, 300);
  const std::size_t total = s.tokens * k;

  Histograms count_level, token_loop;
  std::vector<double> bf_count, bf_loop;
  for (int i = 0; i < s.seeds; ++i) {
    Rng a(hash_mix(0xc0u, static_cast<std::uint64_t>(i)));
    Rng b(hash_mix(0x70u, static_cast<std::uint64_t>(i)));
    auto x = MoeEngine::token_choice_counts(gate, s.tokens, k, a);
    auto y = testing::token_loop_counts(gate, s.tokens, k, b);
    ASSERT_EQ(std::accumulate(x.begin(), x.end(), std::size_t{0}), total);
    if (s.routing == MoeRouting::SBase) {
      MoeEngine::sbase_balance(x, total);
      MoeEngine::sbase_balance(y, total);
    }
    bf_count.push_back(MoeEngine::bottleneck_factor(x));
    bf_loop.push_back(MoeEngine::bottleneck_factor(y));
    count_level.push_back(std::move(x));
    token_loop.push_back(std::move(y));
  }

  const auto mc = moments(count_level);
  const auto ml = moments(token_loop);
  const std::size_t E = gate.size();
  const double n = static_cast<double>(s.seeds);
  for (std::size_t e = 0; e < E; ++e) {
    const std::string tag = "expert " + std::to_string(e);
    expect_close(mc.mean[e], std::sqrt(mc.var[e] / n), ml.mean[e],
                 std::sqrt(ml.var[e] / n), tag + " mean");
    expect_close(mc.var[e], mc.var_se[e], ml.var[e], ml.var_se[e],
                 tag + " variance");
    for (std::size_t j = e + 1; j < E; ++j) {
      expect_close(mc.cov[e][j], mc.cov_se[e][j], ml.cov[e][j],
                   ml.cov_se[e][j],
                   "cov(" + std::to_string(e) + "," + std::to_string(j) + ")");
    }
  }
  const double crit = kKsCoefficient * std::sqrt(2.0 / n);
  EXPECT_LT(ks_statistic(bf_count, bf_loop), crit) << "bottleneck factor KS";

  if (s.routing == MoeRouting::AuxLoss) {
    // The exact first-moment law: E[c_e] = T·(p_e + (k − 1)·Σ_{f≠e}
    // p_f·p_e/(1 − p_f)), p the normalised gate.
    const double g = std::accumulate(gate.begin(), gate.end(), 0.0);
    for (std::size_t e = 0; e < E; ++e) {
      const double pe = gate[e] / g;
      double later = 0.0;
      for (std::size_t f = 0; f < E; ++f) {
        const double pf = gate[f] / g;
        if (f != e) later += pf * pe / (1.0 - pf);
      }
      const double expect =
          static_cast<double>(s.tokens) *
          (pe + static_cast<double>(k - 1) * later);
      EXPECT_LT(std::fabs(mc.mean[e] - expect) / std::sqrt(mc.var[e] / n), kZ)
          << "expert " << e << " count-level mean vs exact law";
    }
  }
}

TEST(MoeRoutingEquivalence, MixtralAuxLoss) {
  check_equivalent({"mixtral", model::mixtral_8x7b_config(),
                    MoeRouting::AuxLoss, 1024, 2000});
}

TEST(MoeRoutingEquivalence, MixtralSBase) {
  check_equivalent({"mixtral", model::mixtral_8x7b_config(),
                    MoeRouting::SBase, 1024, 2000});
}

TEST(MoeRoutingEquivalence, LlamaMoeAuxLoss) {
  check_equivalent({"llama-moe", model::llama_moe_3_5b_config(),
                    MoeRouting::AuxLoss, 1024, 1500});
}

TEST(MoeRoutingEquivalence, LlamaMoeSBase) {
  check_equivalent({"llama-moe", model::llama_moe_3_5b_config(),
                    MoeRouting::SBase, 1024, 1500});
}

TEST(MoeRoutingLaw, LaterPicksAvoidOnlyTheFirst) {
  // E = 2, top-3: picks 2 and 3 must both avoid the first expert, so they
  // repeat each other — every token puts 1 count on its first expert and
  // 2 on the other.  (Pairwise-distinct top-k would be impossible here.)
  const std::vector<double> gate = {1.0, 3.0};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng a(seed), b(seed);
    auto x = MoeEngine::token_choice_counts(gate, 1, 3, a);
    auto y = testing::token_loop_counts(gate, 1, 3, b);
    std::sort(x.begin(), x.end());
    std::sort(y.begin(), y.end());
    EXPECT_EQ(x, (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(y, (std::vector<std::size_t>{1, 2}));
  }
  // Over T tokens: c_e = n_e + 2·(T − n_e) = 2T − n_e, so each expert
  // holds between T and 2T, and the total is 3T.
  const std::size_t T = 257;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng a(seed), b(seed);
    for (const auto& c : {MoeEngine::token_choice_counts(gate, T, 3, a),
                          testing::token_loop_counts(gate, T, 3, b)}) {
      EXPECT_EQ(c[0] + c[1], 3 * T);
      EXPECT_GE(c[0], T);
      EXPECT_LE(c[0], 2 * T);
    }
  }
}

TEST(MoeRoutingLaw, SBaseClosedFormMatchesRoundRobinAuction) {
  // Exact equality with the token-at-a-time auction on skewed, balanced
  // and one-hot histograms, divisible and indivisible totals.
  Rng rng(0x5ba5e);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t E = 1 + rng.uniform_int(20);
    const std::size_t tokens = rng.uniform_int(3000);
    const std::size_t k = 1 + rng.uniform_int(std::min<std::size_t>(E, 4));
    std::vector<double> gate(E);
    const double skew = rng.uniform(0.0, 3.0);
    for (auto& g : gate) g = std::exp(skew * rng.normal());
    auto fast = E >= 2 || k == 1
                    ? MoeEngine::token_choice_counts(gate, tokens, k, rng)
                    : std::vector<std::size_t>{tokens};
    const std::size_t total =
        std::accumulate(fast.begin(), fast.end(), std::size_t{0});
    auto slow = fast;
    MoeEngine::sbase_balance(fast, total);
    testing::sbase_round_robin(slow, total);
    ASSERT_EQ(fast, slow) << "trial " << trial;
  }
  for (std::size_t E : {1u, 3u, 8u, 16u}) {
    std::vector<std::size_t> one_hot(E, 0), flat(E, 5);
    one_hot[E - 1] = 1001;
    for (auto* h : {&one_hot, &flat}) {
      const std::size_t total =
          std::accumulate(h->begin(), h->end(), std::size_t{0});
      auto slow = *h;
      MoeEngine::sbase_balance(*h, total);
      testing::sbase_round_robin(slow, total);
      EXPECT_EQ(*h, slow);
    }
  }
}

TEST(MoeRoutingLaw, ConservesTokensAndRejectsDegenerateGates) {
  Rng rng(7);
  const std::vector<double> gate = {0.5, 0.0, 2.0, 1.0};
  for (std::size_t k : {1u, 2u, 3u}) {
    const auto c = MoeEngine::token_choice_counts(gate, 999, k, rng);
    EXPECT_EQ(std::accumulate(c.begin(), c.end(), std::size_t{0}), 999 * k);
    EXPECT_EQ(c[1], 0u);  // zero gate weight is never picked
  }
  EXPECT_TRUE(MoeEngine::token_choice_counts(gate, 0, 2, rng) ==
              std::vector<std::size_t>(4, 0));
  // One expert cannot host a second, different pick.
  const std::vector<double> one = {1.0}, none = {0.0, 0.0};
  EXPECT_THROW((void)MoeEngine::token_choice_counts(one, 10, 2, rng), Error);
  EXPECT_EQ(MoeEngine::token_choice_counts(one, 10, 1, rng),
            std::vector<std::size_t>{10});
  EXPECT_THROW((void)MoeEngine::token_choice_counts(none, 10, 1, rng), Error);
}

TEST(MoeRoutingLaw, DrawIndependentOfCallOrder) {
  const auto m = model::make_moe(model::mixtral_8x7b_config(), "m");
  MoeEngineConfig cfg;
  cfg.tokens_per_microbatch = 512;
  cfg.num_microbatches = 3;
  MoeEngine fresh(m, cfg), stepped(m, cfg);
  std::vector<model::LayerState> st(m.num_layers());
  stepped.step(11, st);
  const double scale = stepped.microbatch_scale(11)(2, 1);
  stepped.step(12, st);
  const auto want = fresh.route_tokens(2, 11, 1);
  EXPECT_EQ(stepped.route_tokens(2, 11, 1), want);
  // step() drew the same histograms it exposes through route_tokens().
  double mean = 0.0;
  for (int mb = 0; mb < 3; ++mb) {
    mean += MoeEngine::bottleneck_factor(fresh.route_tokens(2, 11, mb));
  }
  mean /= 3.0;
  EXPECT_DOUBLE_EQ(scale * mean, MoeEngine::bottleneck_factor(want));
}

}  // namespace
}  // namespace dynmo::dynamic
