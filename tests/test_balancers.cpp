// Unit and property tests for the Partition and Diffusion balancers —
// including the Lemma-1/Lemma-2 claims: the partition balancer achieves the
// optimal contiguous bottleneck (exhaustively verified on small instances),
// and the diffusion balancer's potential is monotone non-increasing and
// converges within the Lemma-2 round bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/error.hpp"

#include "balance/diffusion.hpp"
#include "balance/partition.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "diffusion_rounds.hpp"

namespace dynmo::balance {
namespace {

/// Brute-force optimal contiguous bottleneck for small instances.
double brute_force_bottleneck(std::span<const double> w, int stages) {
  const std::size_t n = w.size();
  if (stages == 1) return std::accumulate(w.begin(), w.end(), 0.0);
  double best = std::numeric_limits<double>::infinity();
  // Enumerate first-stage cut and recurse.
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + w[i];
  // DP over (position, stages left).
  std::vector<std::vector<double>> dp(
      n + 1, std::vector<double>(static_cast<std::size_t>(stages) + 1,
                                 std::numeric_limits<double>::infinity()));
  dp[n][0] = 0.0;
  for (int k = 1; k <= stages; ++k) {
    for (std::size_t i = 0; i <= n; ++i) {
      for (std::size_t j = i; j <= n; ++j) {
        const double stage = prefix[j] - prefix[i];
        const double rest = dp[j][static_cast<std::size_t>(k - 1)];
        dp[i][static_cast<std::size_t>(k)] =
            std::min(dp[i][static_cast<std::size_t>(k)],
                     std::max(stage, rest));
      }
    }
  }
  best = dp[0][static_cast<std::size_t>(stages)];
  return best;
}

std::vector<double> random_weights(Rng& rng, std::size_t n, int pattern) {
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (pattern) {
      case 0: w[i] = rng.uniform(0.1, 2.0); break;
      case 1: w[i] = std::exp(-3.0 * static_cast<double>(i) / n); break;
      case 2: w[i] = (i % 5 == 0) ? 5.0 : 0.2; break;
      default: w[i] = 1.0; break;
    }
  }
  return w;
}

class PartitionOptimality
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PartitionOptimality, MatchesBruteForce) {
  const auto [n, stages, pattern] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 7 + stages * 3 + pattern));
  const auto w = random_weights(rng, static_cast<std::size_t>(n), pattern);

  PartitionRequest req;
  req.weights = w;
  req.num_stages = stages;
  const auto res = PartitionBalancer{}.balance(req);

  const double optimal = brute_force_bottleneck(w, stages);
  EXPECT_NEAR(res.bottleneck, optimal, 1e-9 + 1e-9 * optimal)
      << "n=" << n << " stages=" << stages << " pattern=" << pattern;
  EXPECT_NEAR(PartitionBalancer::optimal_bottleneck(w, stages), optimal,
              1e-9 + 1e-9 * optimal);
  // Structural sanity.
  EXPECT_EQ(res.map.num_layers(), w.size());
  EXPECT_EQ(res.map.num_stages(), stages);
  EXPECT_TRUE(res.memory_feasible);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PartitionOptimality,
    ::testing::Combine(::testing::Values(1, 3, 8, 13, 20),
                       ::testing::Values(1, 2, 4, 6),
                       ::testing::Values(0, 1, 2, 3)));

TEST(Partition, RespectsMemoryCapacity) {
  PartitionRequest req;
  req.weights = {1, 1, 1, 1, 1, 1};
  req.memory_bytes = {10, 10, 10, 10, 10, 10};
  req.mem_capacity = 25;  // at most 2 layers per stage
  req.num_stages = 3;
  const auto res = PartitionBalancer{}.balance(req);
  EXPECT_TRUE(res.memory_feasible);
  const auto mem = res.map.stage_loads(req.memory_bytes);
  for (double m : mem) EXPECT_LE(m, 25.0);
}

TEST(Partition, FlagsInfeasibleMemory) {
  PartitionRequest req;
  req.weights = {1, 1};
  req.memory_bytes = {30, 30};  // single layer exceeds capacity
  req.mem_capacity = 25;
  req.num_stages = 2;
  const auto res = PartitionBalancer{}.balance(req);
  EXPECT_FALSE(res.memory_feasible);
}

TEST(Partition, RejectsEmptyInput) {
  PartitionRequest req;
  req.num_stages = 2;
  EXPECT_THROW((void)PartitionBalancer{}.balance(req), Error);
}

TEST(Diffusion, PotentialDefinition) {
  // phi = sum over all pairs |x_u - x_v|.
  EXPECT_DOUBLE_EQ(DiffusionBalancer::potential(std::vector<double>{1, 3}),
                   2.0);
  EXPECT_DOUBLE_EQ(
      DiffusionBalancer::potential(std::vector<double>{1, 2, 4}),
      1 + 3 + 2);
  EXPECT_DOUBLE_EQ(DiffusionBalancer::potential(std::vector<double>{5, 5}),
                   0.0);
}

class DiffusionConvergence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DiffusionConvergence, PhiMonotoneAndNearOptimal) {
  const auto [stages, pattern] = GetParam();
  Rng rng(static_cast<std::uint64_t>(stages * 31 + pattern));
  const auto n = static_cast<std::size_t>(stages) * 5;
  const auto w = random_weights(rng, n, pattern);

  DiffusionRequest req;
  req.weights = w;
  const auto start = pipeline::StageMap::uniform(n, stages);
  const auto res = DiffusionBalancer{}.balance(req, start);

  // Reported potential history is monotone non-increasing (Lemma 2).
  for (std::size_t i = 1; i < res.phi_history.size(); ++i) {
    EXPECT_LE(res.phi_history[i], res.phi_history[i - 1] + 1e-9);
  }
  // Round count within the Lemma-2 bound.
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  const double gamma = 1e-3 * total;
  EXPECT_LE(res.rounds,
            DiffusionBalancer::lemma2_round_bound(stages, total, gamma));

  // Final bottleneck within one max layer weight of the partition optimum
  // (whole-layer granularity bound).
  const double opt = PartitionBalancer::optimal_bottleneck(w, stages);
  const double max_w = *std::max_element(w.begin(), w.end());
  const auto loads = res.map.stage_loads(w);
  const double bottleneck = *std::max_element(loads.begin(), loads.end());
  EXPECT_LE(bottleneck, opt + max_w + 1e-9);
  // Never worse than the uniform start.
  const auto start_loads = start.stage_loads(w);
  EXPECT_LE(bottleneck,
            *std::max_element(start_loads.begin(), start_loads.end()) + 1e-9);
  // Map structural sanity.
  EXPECT_EQ(res.map.num_layers(), n);
  EXPECT_EQ(res.map.num_stages(), stages);
}

INSTANTIATE_TEST_SUITE_P(Grid, DiffusionConvergence,
                         ::testing::Combine(::testing::Values(2, 4, 8, 16),
                                            ::testing::Values(0, 1, 2, 3)));

TEST(Diffusion, ConvergesOnAlreadyBalanced) {
  DiffusionRequest req;
  req.weights = std::vector<double>(12, 1.0);
  const auto start = pipeline::StageMap::uniform(12, 4);
  const auto res = DiffusionBalancer{}.balance(req, start);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.map, start);
  EXPECT_EQ(res.layer_moves, 0);
}

TEST(Diffusion, RespectsMemoryCapacity) {
  DiffusionRequest req;
  req.weights = {4, 1, 1, 1};          // heavy first layer
  req.memory_bytes = {10, 10, 10, 10};
  req.mem_capacity = 20;               // max two layers anywhere
  const auto start = pipeline::StageMap::uniform(4, 2);
  const auto res = DiffusionBalancer{}.balance(req, start);
  const auto mem = res.map.stage_loads(req.memory_bytes);
  for (double m : mem) EXPECT_LE(m, 20.0);
}

TEST(Diffusion, EscapesGapGreedyLocalOptimum) {
  // Smoothly decaying loads: naive pairwise gap-greedy exchange stalls at
  // the uniform split; flow-based diffusion must do better.
  std::vector<double> w(32);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = std::exp(-2.5 * static_cast<double>(i) / w.size());
  }
  DiffusionRequest req;
  req.weights = w;
  const auto start = pipeline::StageMap::uniform(w.size(), 8);
  const auto res = DiffusionBalancer{}.balance(req, start);
  const auto start_loads = start.stage_loads(w);
  const auto end_loads = res.map.stage_loads(w);
  EXPECT_LT(load_imbalance(end_loads), 0.5 * load_imbalance(start_loads));
}

TEST(Diffusion, Lemma2BoundGrowsWithN) {
  const int b4 = DiffusionBalancer::lemma2_round_bound(4, 100.0, 0.1);
  const int b16 = DiffusionBalancer::lemma2_round_bound(16, 100.0, 0.1);
  EXPECT_GT(b16, b4);
  EXPECT_GT(b4, 0);
}

// balance() scores only the rounds that moved a layer; the reference in
// diffusion_rounds.hpp scores every round.  Every result field must agree
// exactly, phi_history entry by entry, over seeded random requests: stage
// counts 1..64, uniform and heterogeneous capacities, with and without a
// memory cap, tied and distinct weights, random (possibly empty) start
// stages, and default and truncated round budgets.
TEST(Diffusion, MatchesEveryRoundScoringReference) {
  constexpr int kStages[] = {1, 2, 3, 8, 32, 64};
  constexpr int kCases = 2016;
  Rng rng(0xd1ff);
  int moving = 0;
  for (int i = 0; i < kCases; ++i) {
    const int S = kStages[i % 6];
    const bool hetero = (i / 6) % 2 == 1;
    const bool mem_cap = (i / 12) % 2 == 1;
    const std::size_t L =
        static_cast<std::size_t>(S) + rng.uniform_int(2 * S + 8);
    DiffusionRequest req;
    req.weights = random_weights(rng, L, (i / 24) % 4);
    if (hetero) {
      for (int s = 0; s < S; ++s) req.capacities.push_back(rng.uniform(0.5, 2));
    }
    if (mem_cap) {
      double total_mem = 0.0;
      for (std::size_t l = 0; l < L; ++l) {
        req.memory_bytes.push_back(rng.uniform(1.0, 3.0));
        total_mem += req.memory_bytes.back();
      }
      req.mem_capacity = total_mem / S * rng.uniform(1.05, 2.0);
    }
    if (i % 7 == 0) req.max_rounds = 1 + static_cast<int>(rng.uniform_int(40));
    std::vector<std::size_t> b{0};
    for (int s = 1; s < S; ++s) b.push_back(rng.uniform_int(L + 1));
    b.push_back(L);
    std::sort(b.begin(), b.end());
    const auto start = pipeline::StageMap::from_boundaries(b);

    SCOPED_TRACE("case " + std::to_string(i) + ": S=" + std::to_string(S) +
                 " L=" + std::to_string(L));
    const auto got = DiffusionBalancer{}.balance(req, start);
    const auto want = testing::diffusion_reference(req, start);
    ASSERT_EQ(got.map.boundaries(), want.map.boundaries());
    ASSERT_EQ(got.rounds, want.rounds);
    ASSERT_EQ(got.layer_moves, want.layer_moves);
    ASSERT_EQ(got.converged, want.converged);
    ASSERT_EQ(got.phi_history.size(), want.phi_history.size());
    for (std::size_t r = 0; r < want.phi_history.size(); ++r) {
      ASSERT_EQ(got.phi_history[r], want.phi_history[r]) << "round " << r;
    }
    if (want.layer_moves > 0) ++moving;
  }
  // Most requests must actually move layers, or the comparison is vacuous.
  EXPECT_GT(moving, kCases / 2);
}

}  // namespace
}  // namespace dynmo::balance
