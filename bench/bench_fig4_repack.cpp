// Figure 4: re-packing the model onto fewer GPUs while the workload
// shrinks (gradual pruning / layer freezing / early exit), single node
// with an 8-GPU pipeline.
//
// Left panels: throughput (tokens/sec) and throughput-per-GPU when forcing
// the pipeline into 8 / 6 / 4 / 2 GPUs (8 = no re-packing baseline); cells
// that do not fit in GPU memory are OOM.  Bottom: the average GPU count
// over 10,000 iterations when DynMo re-packs automatically under the
// memory-first-fit policy.  Paper: throughput/GPU rises as GPUs shrink;
// pruning sustains training on ~5.8 GPUs on average.
//
// `--json PATH` additionally writes every cell as a BENCH_*.json perf
// trajectory (see bench/record_bench.sh); all arithmetic is deterministic,
// so the recorded numbers are machine-independent.
#include <cstring>
#include <vector>

#include "bench_common.hpp"

namespace {

// Single-node Fig.4 setup: models sized so memory pressure is real on an
// 8-GPU pipeline (the paper packs multi-billion-parameter GPT variants).
// `hidden` is a knob: 4096 for the forced 8/6/4/2 sweeps (OOM appears only
// at the smallest GPU counts, as in the paper), 8192 for the auto-repack
// trajectory (the unpruned model nearly fills all 8 GPUs, so GPUs are
// released progressively as pruning shrinks the state).
dynmo::model::ModelDesc fig4_model(std::size_t blocks,
                                   std::size_t hidden = 4096) {
  return dynmo::model::make_gpt({.num_blocks = blocks,
                                 .hidden = hidden,
                                 .seq_len = 2048,
                                 .heads = 32,
                                 .include_embedding = false,
                                 .include_lm_head = false});
}

dynmo::Options fig4_options(dynmo::UseCase uc) {
  dynmo::Options opt;
  opt.session.pipeline_stages = 8;
  opt.session.data_parallel = 1;
  opt.session.micro_batch = 1;
  opt.session.num_microbatches = 32;
  opt.session.iterations = 10000;
  opt.session.sim_stride = 100;
  opt.session.rebalance_interval = 500;
  opt.session.repack_interval = 500;
  // Zero the measured decide time at the source so wall-clock jitter
  // never reaches the modeled clock: the recorded numbers reproduce.
  opt.session.telemetry.deterministic = true;
  if (uc == dynmo::UseCase::GradualPruning) {
    opt.session.rebalance_interval = 1000;
    opt.session.repack_interval = 1000;
  }
  return opt;
}

struct ForcedCell {
  const char* use_case = "";
  std::size_t layers = 0;
  int gpus = 0;
  bool oom = false;
  double tokens_per_sec = 0.0;
  double avg_active_workers = 0.0;
};

struct AutoRow {
  std::size_t layers = 0;
  double avg_gpus = 0.0;
  int repacks = 0;
  double tokens_per_sec = 0.0;
};

void write_json(const char* path, const std::vector<ForcedCell>& forced,
                const std::vector<AutoRow>& auto_rows) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(2);
  }
  std::fprintf(f, "{\n  \"bench\": \"fig4_repack\",\n  \"forced\": [\n");
  for (std::size_t i = 0; i < forced.size(); ++i) {
    const ForcedCell& c = forced[i];
    std::fprintf(f,
                 "    {\"use_case\": \"%s\", \"layers\": %zu, \"gpus\": %d, "
                 "\"oom\": %s, \"tokens_per_sec\": %.6g, "
                 "\"tokens_per_gpu\": %.6g}%s\n",
                 c.use_case, c.layers, c.gpus, c.oom ? "true" : "false",
                 c.oom ? 0.0 : c.tokens_per_sec,
                 c.oom || c.avg_active_workers <= 0.0
                     ? 0.0
                     : c.tokens_per_sec / c.avg_active_workers,
                 i + 1 < forced.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"auto_repack\": [\n");
  for (std::size_t i = 0; i < auto_rows.size(); ++i) {
    const AutoRow& r = auto_rows[i];
    std::fprintf(f,
                 "    {\"layers\": %zu, \"avg_gpus\": %.6g, \"repacks\": %d, "
                 "\"tokens_per_sec\": %.6g}%s\n",
                 r.layers, r.avg_gpus, r.repacks, r.tokens_per_sec,
                 i + 1 < auto_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dynmo;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  std::vector<ForcedCell> forced;
  std::vector<AutoRow> auto_rows;
  std::printf("Figure 4 — re-packing to fewer GPUs (8-GPU pipeline, "
              "hidden 4096)\n");

  const UseCase cases[] = {UseCase::GradualPruning, UseCase::LayerFreezing,
                           UseCase::EarlyExit};
  for (UseCase uc : cases) {
    std::printf("\n== %s ==\n", to_string(uc));
    std::printf("%-10s", "layers");
    for (int g : {8, 6, 4, 2}) std::printf("   %7dGPU tok/s  per-GPU", g);
    std::printf("\n");
    for (std::size_t blocks : {24u, 32u, 40u, 48u}) {
      const auto model = fig4_model(blocks);
      std::printf("%-10zu", blocks);
      for (int gpus : {8, 6, 4, 2}) {
        auto opt = fig4_options(uc);
        opt.session.mode = runtime::BalancingMode::DynMo;
        opt.session.algorithm = balance::Algorithm::Partition;
        opt.session.repack = gpus != 8;
        opt.session.repack_policy =
            runtime::SessionConfig::RepackPolicy::MemoryFirstFit;
        opt.session.repack_target_workers = gpus == 8 ? 0 : gpus;
        // Forced packs engage once the dynamism has shrunk the model (the
        // paper re-packs "after a dynamism step"); for pruning that is the
        // end of the schedule.
        if (uc == UseCase::GradualPruning) {
          opt.session.repack_interval = 7000;
        } else {
          opt.session.repack_interval = 2000;
        }
        Session s(model, uc, opt);
        const auto r = s.run();
        forced.push_back({to_string(uc), blocks, gpus, r.oom,
                          r.tokens_per_sec, r.avg_active_workers});
        if (r.oom) {
          std::printf("   %18s %8s", "OOM", "-");
        } else {
          std::printf("   %11.0f tok/s %8.0f", r.tokens_per_sec,
                      r.tokens_per_sec / r.avg_active_workers);
        }
      }
      std::printf("\n");
    }
  }

  // Bottom of Fig. 4: average GPUs used with automatic memory-first-fit
  // re-packing under gradual pruning (hidden 8192: the dense model nearly
  // fills the 8 GPUs, so releases track the pruning schedule).
  std::printf("\nAverage GPUs over 10k iterations (auto re-pack, gradual "
              "pruning):\n");
  for (std::size_t blocks : {24u, 32u, 40u, 48u}) {
    const auto model = fig4_model(blocks, 8192);
    auto opt = fig4_options(UseCase::GradualPruning);
    opt.session.mode = runtime::BalancingMode::DynMo;
    opt.session.algorithm = balance::Algorithm::Partition;
    opt.session.repack = true;
    opt.session.repack_policy =
        runtime::SessionConfig::RepackPolicy::MemoryFirstFit;
    Session s(model, UseCase::GradualPruning, opt);
    const auto r = s.run();
    auto_rows.push_back(
        {blocks, r.avg_active_workers, r.repack_count, r.tokens_per_sec});
    std::printf("  %2zu layers: avg %.1f GPUs (%d repacks), %0.f tok/s\n",
                blocks, r.avg_active_workers, r.repack_count,
                r.tokens_per_sec);
  }
  if (json_path != nullptr) write_json(json_path, forced, auto_rows);
  return 0;
}
