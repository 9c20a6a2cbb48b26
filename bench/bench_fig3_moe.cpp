// Figure 3 (Mixture of Experts panel): continual training of Mixtral-8x7b
// (aux-loss routing) and LLaMA-MoE-3.5B (S-BASE routing) on 128 simulated
// H100s (16-way DP x 8-way PP).
//
// Baselines: static Megatron-LM, static DeepSpeed, and Tutel (adaptive MoE
// system that mitigates routing skew without moving layers).  DynMo
// rebalances every iteration during backprop.  Paper: 1.21x (Mixtral) /
// 1.23x (LLaMA-MoE) over the best static, 1.18x/1.21x over Tutel; bubble
// ratio 25% -> 8%.
//
// Known gap: on this 8 PP x 16 DP shape, Mixtral needs 90.9 GB per stage
// in the simulator's memory model, over the H100's 80 GB, so every
// Mixtral session here sets SessionResult::oom — the static baselines
// included.  This bench does not check oom; perfbench/README.md runs the
// same 128 GPUs as 16 PP x 8 DP, which fits.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dynmo;
  bench::JsonRecorder rec("fig3_moe");
  const char* json_path = bench::json_path_arg(argc, argv);
  std::printf("Figure 3 — Mixture of Experts: tokens/sec on 128 simulated "
              "H100s (16-way DP x 8-way PP)\n");

  struct MoeCase {
    const char* name;
    model::MoeConfig cfg;
    dynamic::MoeRouting routing;
  };
  const MoeCase cases[] = {
      {"Mixtral 8x7b (aux-loss routing)", model::mixtral_8x7b_config(),
       dynamic::MoeRouting::AuxLoss},
      {"LLaMA-MoE-3.5B (S-BASE routing)", model::llama_moe_3_5b_config(),
       dynamic::MoeRouting::SBase},
  };

  for (const auto& c : cases) {
    auto moe_cfg = c.cfg;
    const auto model = model::make_moe(moe_cfg, c.name);
    Options opt;
    opt.session = bench::moe_cluster_config();
    opt.session.rebalance_interval = 1;
    opt.session.iterations = 1000;
    opt.session.sim_stride = 20;
    opt.moe.routing = c.routing;
    // Routing is drawn per (layer, microbatch) at count level, so its cost
    // does not grow with the token count.  1024 tokens per draw is a
    // fidelity setting that predates that; lifting it to the model's real
    // token count moves both cases' baselines and is a change of its own.
    opt.moe.tokens_per_microbatch = 1024;

    const auto megatron = bench::run_config(
        model, UseCase::Moe, opt, runtime::BalancingMode::StaticUniform,
        balance::Algorithm::Partition, balance::BalanceBy::Time);
    const auto deepspeed = bench::run_config(
        model, UseCase::Moe, opt, runtime::BalancingMode::StaticParam,
        balance::Algorithm::Partition, balance::BalanceBy::Time);
    const auto tutel = bench::run_config(
        model, UseCase::Moe, opt, runtime::BalancingMode::Tutel,
        balance::Algorithm::Partition, balance::BalanceBy::Time);
    const auto part = bench::run_dynmo_best(model, UseCase::Moe, opt,
                                            balance::Algorithm::Partition);
    const auto diff = bench::run_dynmo_best(model, UseCase::Moe, opt,
                                            balance::Algorithm::Diffusion);

    const double best_static =
        std::max(megatron.tokens_per_sec, deepspeed.tokens_per_sec);
    const std::vector<bench::Row> rows = {{"Static (Megatron-LM)", megatron},
                                          {"Static (DeepSpeed)", deepspeed},
                                          {"Tutel", tutel},
                                          {"DynMo (Partition)", part},
                                          {"DynMo (Diffusion)", diff}};
    bench::print_table(c.name, rows, best_static);
    rec.add_case(c.name, rows, best_static);
    std::printf("bubble ratio: static %.1f%% -> DynMo %.1f%%  |  "
                "DynMo vs Tutel: %.2fx\n",
                100.0 * megatron.avg_bubble_ratio,
                100.0 * std::min(part.avg_bubble_ratio,
                                 diff.avg_bubble_ratio),
                std::max(part.tokens_per_sec, diff.tokens_per_sec) /
                    tutel.tokens_per_sec);
  }
  if (json_path != nullptr) rec.write(json_path);
  return 0;
}
