// Micro-benchmarks (google-benchmark) for the real compute kernels: dense
// matmul and top-k selection — the building blocks of the threaded runtime
// and the distributed pruning path.
#include <benchmark/benchmark.h>

#include "core/rng.hpp"
#include "tensor/tensor.hpp"

namespace {

using dynmo::Rng;
using dynmo::tensor::Tensor;

// GFLOP/s over wall time (UseRealTime): a kernel that hands work to other
// threads would otherwise look faster than it is.
void set_gflops(benchmark::State& state, std::size_t m, std::size_t k,
                std::size_t n) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m) * static_cast<double>(k) *
          static_cast<double>(n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::random(n, n, rng);
  const Tensor b = Tensor::random(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dynmo::tensor::matmul(a, b));
  }
  set_gflops(state, n, n, n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

// The threaded runtime's per-layer GEMM: batch_rows x hidden times
// hidden x hidden (8 x 64 . 64 x 64).  Arg 1 zeroes every other element of
// A, as pruning leaves it, so the zero-skip is measured too.
void BM_MatmulRuntimeShape(benchmark::State& state) {
  constexpr std::size_t kRows = 8;
  constexpr std::size_t kHidden = 64;
  Rng rng(1);
  Tensor a = Tensor::random(kRows, kHidden, rng);
  if (state.range(0) != 0) {
    for (std::size_t i = 0; i < a.size(); i += 2) a.data()[i] = 0.0f;
  }
  const Tensor b = Tensor::random(kHidden, kHidden, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dynmo::tensor::matmul(a, b));
  }
  set_gflops(state, kRows, kHidden, kHidden);
}
BENCHMARK(BM_MatmulRuntimeShape)
    ->ArgName("half_pruned")
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime();

void BM_TopK(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<float> xs(n);
  for (auto& v : xs) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dynmo::tensor::topk_abs_indices(xs, n / 10));
  }
}
BENCHMARK(BM_TopK)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
