// Unit tests for tensor/: dense ops and top-k selection — the real kernels
// behind the threaded runtime and the distributed pruning path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/rng.hpp"
#include "tensor/tensor.hpp"

namespace dynmo::tensor {
namespace {

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += a.at(i, k) * b.at(k, j);
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

TEST(Tensor, ShapeAndFill) {
  Tensor t(3, 4, 2.5f);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 4u);
  EXPECT_EQ(t.size(), 12u);
  EXPECT_EQ(t.bytes(), 12 * sizeof(float));
  for (float v : t.data()) EXPECT_EQ(v, 2.5f);
}

TEST(Tensor, RandomIsDeterministicPerSeed) {
  Rng a(5), b(5);
  const Tensor x = Tensor::random(4, 4, a);
  const Tensor y = Tensor::random(4, 4, b);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x.data()[i], y.data()[i]);
  }
}

// (m, k, n, zero every other element of A as pruning leaves it).
class MatmulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>> {};

// For finite inputs the naive dot product and matmul's zero-skipping
// ascending-k order give the same bits, so any reordered summation fails.
TEST_P(MatmulShapes, MatchesNaiveBitForBit) {
  const auto [m, k, n, half_zero] = GetParam();
  Rng rng(42);
  Tensor a = Tensor::random(static_cast<std::size_t>(m),
                            static_cast<std::size_t>(k), rng);
  if (half_zero) {
    for (std::size_t i = 0; i < a.size(); i += 2) a.data()[i] = 0.0f;
  }
  const Tensor b = Tensor::random(static_cast<std::size_t>(k),
                                  static_cast<std::size_t>(n), rng);
  const Tensor c = matmul(a, b);
  const Tensor ref = naive_matmul(a, b);
  ASSERT_TRUE(c.same_shape(ref));
  EXPECT_EQ(std::memcmp(c.data().data(), ref.data().data(), c.bytes()), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapes,
    ::testing::Values(
        std::tuple{1, 1, 1, false}, std::tuple{2, 3, 4, false},
        std::tuple{8, 8, 8, false}, std::tuple{17, 5, 9, false},
        std::tuple{64, 32, 16, false}, std::tuple{1, 64, 1, false},
        // The threaded runtime's batch_rows x hidden . hidden x hidden.
        std::tuple{8, 64, 64, false},
        // Widths that are not a multiple of the column tile.
        std::tuple{3, 5, 33, false}, std::tuple{8, 64, 40, false},
        // Wide: more than two tiles plus a tail.
        std::tuple{4, 16, 100, false},
        // Half-zero A: the skipped terms must not change a bit.
        std::tuple{8, 64, 64, true}, std::tuple{3, 5, 33, true}));

// A zero in A skips its row of B entirely, in the tiles and in the tail:
// 0 * inf would otherwise poison the whole output row with NaN.
TEST(Tensor, MatmulZeroInASkipsItsRowOfB) {
  Tensor a(1, 2);
  a.at(0, 1) = 2.0f;
  Tensor b(2, 40, 1.0f);
  for (float& v : b.row(0)) v = INFINITY;
  const Tensor c = matmul(a, b);
  for (float v : c.data()) EXPECT_EQ(v, 2.0f);
}

TEST(Tensor, MatmulShapeMismatchThrows) {
  Tensor a(2, 3), b(4, 2);
  EXPECT_THROW((void)matmul(a, b), Error);
}

TEST(Tensor, LinearAddsBias) {
  Tensor x(1, 2);
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = 2.0f;
  Tensor w(2, 2);
  w.at(0, 0) = 1.0f;
  w.at(1, 1) = 1.0f;
  const std::vector<float> bias = {10.0f, 20.0f};
  const Tensor y = linear(x, w, bias);
  EXPECT_FLOAT_EQ(y.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 22.0f);
}

TEST(Tensor, ReluClampsNegatives) {
  Tensor t(1, 3);
  t.at(0, 0) = -1.0f;
  t.at(0, 1) = 0.0f;
  t.at(0, 2) = 2.0f;
  relu_inplace(t);
  EXPECT_EQ(t.at(0, 0), 0.0f);
  EXPECT_EQ(t.at(0, 1), 0.0f);
  EXPECT_EQ(t.at(0, 2), 2.0f);
}

TEST(Tensor, FrobeniusNorm) {
  Tensor t(1, 2);
  t.at(0, 0) = 3.0f;
  t.at(0, 1) = 4.0f;
  EXPECT_NEAR(frobenius_norm(t), 5.0, 1e-9);
}

TEST(TopK, SelectsLargestMagnitudes) {
  const std::vector<float> xs = {0.1f, -5.0f, 2.0f, -0.5f, 3.0f};
  auto idx = topk_abs_indices(xs, 2);
  std::sort(idx.begin(), idx.end());
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{1, 4}));
}

TEST(TopK, ClampsToSize) {
  const std::vector<float> xs = {1.0f, 2.0f};
  EXPECT_EQ(topk_abs_indices(xs, 10).size(), 2u);
  EXPECT_TRUE(topk_abs_indices(xs, 0).empty());
}

TEST(TopK, KthAbsValue) {
  const std::vector<float> xs = {0.1f, -5.0f, 2.0f, -0.5f, 3.0f};
  EXPECT_FLOAT_EQ(kth_abs_value(xs, 1), 5.0f);
  EXPECT_FLOAT_EQ(kth_abs_value(xs, 3), 2.0f);
  EXPECT_FLOAT_EQ(kth_abs_value(xs, 5), 0.1f);
  EXPECT_THROW((void)kth_abs_value(xs, 6), Error);
}

}  // namespace
}  // namespace dynmo::tensor
