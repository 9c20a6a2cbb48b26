// Figure 3 (Dynamic Sparse Attention panel): LSH-bucketed block-sparse
// FlashAttention (Pagliardini et al.) on GPT models, 24-48 layers.
//
// The baseline is *dense* attention on a static placement; the sparse runs
// follow the paper's Sec. 2.4 load model (layer load = s_i(k) * c_i with
// per-layer per-iteration sparsity factors).  DynMo rebalances every
// iteration.  Paper speedups over dense: 2.71x-4.02x.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dynmo;
  bench::JsonRecorder rec("fig3_sparse_attn");
  const char* json_path = bench::json_path_arg(argc, argv);
  std::printf(
      "Figure 3 — Dynamic Sparse Attention: tokens/sec on 720 simulated "
      "H100s\nper-iteration LSH re-hash; rebalance every iteration\n");

  for (std::size_t blocks : {24u, 32u, 40u, 48u}) {
    const auto model = model::make_gpt({.num_blocks = blocks,
                                        .include_embedding = false,
                                        .include_lm_head = false});
    Options opt;
    opt.session = bench::gpt_cluster_config();
    opt.session.rebalance_interval = 1;  // routing changes every iteration
    opt.session.iterations = 2000;       // stationary: shorter window
    opt.session.sim_stride = 10;
    // Zero the measured decide time at the source so wall-clock jitter
    // never reaches the modeled clock: the recorded numbers reproduce.
    opt.session.telemetry.deterministic = true;

    const auto dense = bench::run_config(
        model, UseCase::Static, opt, runtime::BalancingMode::StaticUniform,
        balance::Algorithm::Partition, balance::BalanceBy::Time);
    const auto static_sparse = bench::run_config(
        model, UseCase::SparseAttention, opt,
        runtime::BalancingMode::StaticUniform, balance::Algorithm::Partition,
        balance::BalanceBy::Time);
    const auto part = bench::run_dynmo_best(model, UseCase::SparseAttention,
                                            opt, balance::Algorithm::Partition);
    const auto diff = bench::run_dynmo_best(model, UseCase::SparseAttention,
                                            opt, balance::Algorithm::Diffusion);

    const std::vector<bench::Row> rows = {
        {"Dense attention (static)", dense},
        {"Sparse attn, static placement", static_sparse},
        {"DynMo (Partition)", part},
        {"DynMo (Diffusion)", diff}};
    const std::string title = std::to_string(blocks) + " layers";
    bench::print_table(title, rows, dense.tokens_per_sec);
    rec.add_case(title, rows, dense.tokens_per_sec);
  }
  if (json_path != nullptr) rec.write(json_path);
  return 0;
}
