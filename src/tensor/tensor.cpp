#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dynmo::tensor {

Tensor Tensor::random(std::size_t rows, std::size_t cols, Rng& rng,
                      float scale) {
  Tensor t(rows, cols);
  for (float& v : t.data_) {
    v = static_cast<float>(rng.normal(0.0, 1.0)) * scale;
  }
  return t;
}

namespace {

// Columns of C kept in a local accumulator across the whole k loop, so
// each C element is loaded and stored once per row instead of once per kk.
constexpr std::size_t kTile = 32;

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  DYNMO_CHECK(a.cols() == b.rows(),
              "matmul shape mismatch: " << a.rows() << 'x' << a.cols()
                                        << " * " << b.rows() << 'x'
                                        << b.cols());
  Tensor c(a.rows(), b.cols());
  const std::size_t n = b.cols();
  const std::size_t k = a.cols();
  const std::size_t n_tiled = n - n % kTile;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto arow = a.row(i);
    auto crow = c.row(i);
    // Every C element starts at 0 and adds aik * b[kk][j] in ascending kk,
    // skipping aik == 0: the same sum, bit for bit, in the tiles and the
    // tail.  The skip is a free win once pruning kicks in.
    for (std::size_t j0 = 0; j0 < n_tiled; j0 += kTile) {
      float acc[kTile] = {};
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float aik = arow[kk];
        if (aik == 0.0f) continue;
        const float* brow = b.row(kk).data() + j0;
        for (std::size_t t = 0; t < kTile; ++t) acc[t] += aik * brow[t];
      }
      std::copy(acc, acc + kTile, crow.data() + j0);
    }
    // Tail columns: i-k-j order, unit-stride inner loop over B and C.
    if (n_tiled == n) continue;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      if (aik == 0.0f) continue;
      const auto brow = b.row(kk);
      for (std::size_t j = n_tiled; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Tensor linear(const Tensor& x, const Tensor& w, std::span<const float> bias) {
  Tensor y = matmul(x, w);
  if (!bias.empty()) {
    DYNMO_CHECK(bias.size() == y.cols(), "bias length mismatch");
    for (std::size_t i = 0; i < y.rows(); ++i) {
      auto row = y.row(i);
      for (std::size_t j = 0; j < row.size(); ++j) row[j] += bias[j];
    }
  }
  return y;
}

void relu_inplace(Tensor& t) {
  for (float& v : t.data()) v = std::max(v, 0.0f);
}

double frobenius_norm(const Tensor& t) {
  double acc = 0.0;
  for (float v : t.data()) acc += static_cast<double>(v) * v;
  return std::sqrt(acc);
}

double abs_sum(std::span<const float> xs) {
  double acc = 0.0;
  for (float v : xs) acc += std::abs(static_cast<double>(v));
  return acc;
}

std::vector<std::uint32_t> topk_abs_indices(std::span<const float> xs,
                                            std::size_t k) {
  k = std::min(k, xs.size());
  std::vector<std::uint32_t> idx(xs.size());
  std::iota(idx.begin(), idx.end(), 0u);
  std::nth_element(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                   idx.end(), [&](std::uint32_t a, std::uint32_t b) {
                     return std::abs(xs[a]) > std::abs(xs[b]);
                   });
  idx.resize(k);
  return idx;
}

float kth_abs_value(std::span<const float> xs, std::size_t k) {
  DYNMO_CHECK(k >= 1 && k <= xs.size(),
              "kth_abs_value: k=" << k << " size=" << xs.size());
  std::vector<float> mags(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) mags[i] = std::abs(xs[i]);
  std::nth_element(mags.begin(), mags.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   mags.end(), std::greater<>());
  return mags[k - 1];
}

}  // namespace dynmo::tensor
