// Micro-benchmarks (google-benchmark) for the real compute kernels of the
// threaded runtime and the distributed pruning path: dense matmul, top-k
// selection, and the checkpoint codec that every elastic restart and
// recovery cut runs (serialize once, deserialize on every rank).
#include <benchmark/benchmark.h>

#include "core/rng.hpp"
#include "runtime/checkpoint.hpp"
#include "tensor/tensor.hpp"

namespace {

using dynmo::Rng;
using dynmo::runtime::Checkpoint;
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

// Bytes/s over wall time, like set_gflops.
void set_bytes_rate(benchmark::State& state, std::size_t bytes) {
  state.counters["bytes/s"] = benchmark::Counter(
      static_cast<double>(bytes) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

// A threaded-runtime restart checkpoint at perfbench's shape: 16 layers of
// 64 x 64 weights on 4 stages, no layer states (262,784 bytes).
Checkpoint restart_checkpoint() {
  Checkpoint ckpt;
  ckpt.iteration = 1000;
  ckpt.stage_map = dynmo::pipeline::StageMap::uniform(16, 4);
  Rng rng(5);
  for (std::uint64_t l = 0; l < 16; ++l) {
    ckpt.weights.emplace(l, Tensor::random(64, 64, rng));
  }
  return ckpt;
}

void BM_CheckpointSerialize(benchmark::State& state) {
  const Checkpoint ckpt = restart_checkpoint();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto blob = ckpt.serialize();
    bytes = blob.size();
    benchmark::DoNotOptimize(blob.data());
  }
  set_bytes_rate(state, bytes);
}
BENCHMARK(BM_CheckpointSerialize)->UseRealTime();

void BM_CheckpointDeserialize(benchmark::State& state) {
  const auto blob = restart_checkpoint().serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Checkpoint::deserialize(blob));
  }
  set_bytes_rate(state, blob.size());
}
BENCHMARK(BM_CheckpointDeserialize)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
