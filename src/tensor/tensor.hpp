// Minimal owning dense matrix/vector types.
//
// These are *real* tensors (not cost-model stand-ins): the threaded runtime
// executes small GEMMs through them, distributed global pruning zeroes
// their pruned entries in place, and layer migration moves their buffers
// between workers.
// Row-major float32 throughout; RAII ownership (no raw new/delete).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace dynmo::tensor {

class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Tensor random(std::size_t rows, std::size_t cols, Rng& rng,
                       float scale = 1.0f);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) {
    DYNMO_ASSERT(r < rows_ && c < cols_, "tensor index out of range");
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const {
    DYNMO_ASSERT(r < rows_ && c < cols_, "tensor index out of range");
    return data_[r * cols_ + c];
  }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }
  std::span<float> row(std::size_t r) {
    return std::span<float>(data_).subspan(r * cols_, cols_);
  }
  std::span<const float> row(std::size_t r) const {
    return std::span<const float>(data_).subspan(r * cols_, cols_);
  }

  /// Bytes of the underlying buffer (what migration actually copies).
  std::size_t bytes() const { return data_.size() * sizeof(float); }

  bool same_shape(const Tensor& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// C = A * B (row-major), computed on the calling thread.  Each C element
/// is summed in ascending k order, so the result is bit-identical to a
/// naive dot product for finite inputs.
Tensor matmul(const Tensor& a, const Tensor& b);

/// y = x * W + b applied row-wise; W is (in, out).  b may be empty.
Tensor linear(const Tensor& x, const Tensor& w, std::span<const float> bias);

/// In-place ReLU.
void relu_inplace(Tensor& t);

/// Frobenius norm.
double frobenius_norm(const Tensor& t);

/// Sum of absolute values.
double abs_sum(std::span<const float> xs);

/// Indices of the k largest |values| within xs (unordered).  k is clamped
/// to xs.size().
std::vector<std::uint32_t> topk_abs_indices(std::span<const float> xs,
                                            std::size_t k);

/// The k-th largest |value| (the global-pruning threshold); k >= 1.
float kth_abs_value(std::span<const float> xs, std::size_t k);

}  // namespace dynmo::tensor
