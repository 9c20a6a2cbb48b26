// Figure 3 (Mixture of Depths panel): MoD GPT models (expert-choice block
// routing with an auxiliary MLP predictor), 24-48 layers.
//
// Baselines: static Megatron-LM and static DeepSpeed placements of the
// same MoD model.  DynMo rebalances every iteration during backprop.
// Paper speedups: 1.16x-1.17x (the ~18% routing imbalance drops to ~4%).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dynmo;
  bench::JsonRecorder rec("fig3_mod");
  const char* json_path = bench::json_path_arg(argc, argv);
  std::printf(
      "Figure 3 — Mixture of Depths: tokens/sec on 720 simulated H100s\n"
      "capacity 0.5, routed every other block; rebalance every iteration\n");

  for (std::size_t blocks : {24u, 32u, 40u, 48u}) {
    const auto model = model::make_gpt({.num_blocks = blocks,
                                        .include_embedding = false,
                                        .include_lm_head = false});
    Options opt;
    opt.session = bench::gpt_cluster_config_deep_stages();
    opt.session.rebalance_interval = 1;
    opt.session.iterations = 2000;  // stationary routing statistics
    opt.session.sim_stride = 10;
    // Zero the measured decide time at the source so wall-clock jitter
    // never reaches the modeled clock: the recorded numbers reproduce.
    opt.session.telemetry.deterministic = true;

    const auto megatron = bench::run_config(
        model, UseCase::MixtureOfDepths, opt,
        runtime::BalancingMode::StaticUniform, balance::Algorithm::Partition,
        balance::BalanceBy::Time);
    const auto deepspeed = bench::run_config(
        model, UseCase::MixtureOfDepths, opt,
        runtime::BalancingMode::StaticParam, balance::Algorithm::Partition,
        balance::BalanceBy::Time);
    const auto part = bench::run_dynmo_best(model, UseCase::MixtureOfDepths,
                                            opt, balance::Algorithm::Partition);
    const auto diff = bench::run_dynmo_best(model, UseCase::MixtureOfDepths,
                                            opt, balance::Algorithm::Diffusion);

    const double best_static =
        std::max(megatron.tokens_per_sec, deepspeed.tokens_per_sec);
    const std::vector<bench::Row> rows = {{"Static (Megatron-LM)", megatron},
                                          {"Static (DeepSpeed)", deepspeed},
                                          {"DynMo (Partition)", part},
                                          {"DynMo (Diffusion)", diff}};
    const std::string title = std::to_string(blocks) + " layers";
    bench::print_table(title, rows, best_static);
    rec.add_case(title, rows, best_static);
  }
  if (json_path != nullptr) rec.write(json_path);
  return 0;
}
