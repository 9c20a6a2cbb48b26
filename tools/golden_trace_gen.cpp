// golden_trace_gen: replay the canonical golden-trace scenarios
// (docs/TRANSPORT.md "Golden-trace gate") with deterministic telemetry.
//
//   golden_trace_gen --scenario session           --out DIR
//   golden_trace_gen --scenario large_grid        --out DIR
//   golden_trace_gen --scenario lifecycle_elastic --out DIR
//   golden_trace_gen --scenario lifecycle_repack  --out DIR
//   golden_trace_gen --scenario threaded_fault --out DIR [--transport T]
//
// `session` is the small modeled session from the telemetry tests (8
// stages, 400 iterations at stride 10, Diffusion rebalancing every frame):
// single-threaded and fully modeled, it pins the trace *format* — every
// row, every column, byte for byte.  `threaded_fault` is the
// heartbeat-detected worker-loss recovery from the fault tests (3 workers,
// loss at iteration 6, checkpoint cadence 4): real threads on a real
// transport, it pins the determinism *contract* — the rows rank 0 emits
// and the recovery checksums must be identical on every backend.  Traces
// are recorded with TelemetryConfig::deterministic, so the measured
// wall-clock columns are zeroed at the source and the remaining content is
// a pure function of the scenario.
//
// `large_grid` is the canonical large deployment for the cached decision
// path: a 2×32 DP×PP grid on 8 DGX-H100 nodes (64 ranks), capacity-aware
// diffusion every frame.  Its golden and the `session` golden record
// per-layer arrays, so tests/test_incremental_cost.cpp replays both
// recorded load histories through the production rebalancer and the
// full-rescan oracle in lockstep (docs/COST_MODEL.md "Incremental
// recomputation").
//
// `lifecycle_elastic` and `lifecycle_repack` pin the session's restart
// and re-pack paths, which the other session goldens never reach: the
// first drives the stepping API through a forced shrink ("preempt"),
// voluntary expands, a straggler onset and recovery, periodic checkpoints
// and a worker loss; the second records payoff-rejected and accepted
// re-packs.  Both record stage totals only (per_layer off) to keep the
// goldens small.
//
// For threaded_fault the tool also runs the fault-free twin of the same
// seed in memory and refuses (exit 2) to emit a golden whose recovery
// checksums disagree with it — a golden that violates the paper's
// bit-identical-recovery claim must never be committed.  The checksums
// land in DIR/checksums.txt for the gate's cross-backend compare.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dynmo/dynmo.hpp"
#include "runtime/threaded.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --scenario session|large_grid|lifecycle_elastic|"
               "lifecycle_repack|threaded_fault "
               "--out DIR [--transport inproc|socket]\n",
               argv0);
  return 64;
}

void run_session(const std::string& out) {
  using namespace dynmo;
  // Mirrors tests/test_telemetry.cpp traced_options(): change one only in
  // lockstep with the other (and regenerate the golden).
  Options opt;
  opt.session.pipeline_stages = 8;
  opt.session.micro_batch = 2;
  opt.session.num_microbatches = 16;
  opt.session.iterations = 400;
  opt.session.sim_stride = 10;
  opt.session.rebalance_interval = 1;
  opt.session.mode = runtime::BalancingMode::DynMo;
  opt.session.algorithm = balance::Algorithm::Diffusion;
  opt.session.payoff_window_iters = 20.0;
  opt.session.telemetry.dir = out;
  opt.session.telemetry.deterministic = true;
  Session session(model::make_gpt({.num_blocks = 16,
                                   .include_embedding = false,
                                   .include_lm_head = false}),
                  UseCase::SparseAttention, opt);
  const auto result = session.run();
  std::printf("session: %zu frames traced, tokens/s %.6g\n",
              static_cast<std::size_t>(opt.session.iterations /
                                       opt.session.sim_stride),
              result.tokens_per_sec);
}

void run_large_grid(const std::string& out) {
  using namespace dynmo;
  // Canonical large-grid scenario for the cached decision path.
  Options opt;
  opt.session.pipeline_stages = 32;
  opt.session.data_parallel = 2;
  opt.session.micro_batch = 2;
  opt.session.num_microbatches = 16;
  opt.session.iterations = 200;
  opt.session.sim_stride = 10;
  opt.session.rebalance_interval = 1;
  opt.session.mode = runtime::BalancingMode::DynMo;
  opt.session.algorithm = balance::Algorithm::Diffusion;
  opt.session.payoff_window_iters = 20.0;
  opt.session.deployment = cluster::Deployment::make_grid_topology_aware(
      cluster::Topology::make_dgx_h100(8), /*data_parallel=*/2,
      /*num_stages=*/32, cluster::GridOrientation::PpInner);
  opt.session.telemetry.dir = out;
  opt.session.telemetry.deterministic = true;
  Session session(model::make_gpt({.num_blocks = 64,
                                   .include_embedding = false,
                                   .include_lm_head = false}),
                  UseCase::SparseAttention, opt);
  const auto result = session.run();
  std::printf("large_grid: %zu frames traced, tokens/s %.6g\n",
              static_cast<std::size_t>(opt.session.iterations /
                                       opt.session.sim_stride),
              result.tokens_per_sec);
}

void run_lifecycle_elastic(const std::string& out) {
  using namespace dynmo;
  // Every checkpoint-coordinated restart path in one run: an
  // arbiter-style forced shrink ("preempt"), voluntary elastic
  // transitions, a worker loss rolled back to the last periodic
  // checkpoint, and a straggler window that opens and recovers.
  Options opt;
  opt.session.pipeline_stages = 8;
  opt.session.micro_batch = 2;
  opt.session.num_microbatches = 16;
  opt.session.iterations = 2000;
  opt.session.sim_stride = 10;
  opt.session.rebalance_interval = 100;
  opt.session.mode = runtime::BalancingMode::DynMo;
  opt.session.algorithm = balance::Algorithm::Diffusion;
  opt.session.initial_active_workers = 6;
  opt.session.elastic.enabled = true;
  opt.session.elastic.interval = 200;
  opt.session.elastic.min_workers = 2;
  opt.session.elastic.payoff_window_iters = 600.0;
  opt.session.checkpoint_interval_iters = 200;
  opt.session.fault.losses = {{.iter = 1450, .worker = 3}};
  opt.session.fault.stragglers = {
      {.worker = 1, .multiplier = 0.5, .from_iter = 300, .until_iter = 700}};
  opt.session.telemetry.dir = out;
  opt.session.telemetry.deterministic = true;
  opt.session.telemetry.per_layer = false;
  const auto m = model::make_gpt({.num_blocks = 24,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  // Stepped like a fleet job: the "arbiter" preempts it down to 4 workers
  // after 60 windows.
  const auto engine = make_engine(UseCase::EarlyExit, m, opt);
  runtime::TrainingSession session(m, opt.session, engine.get());
  session.start();
  for (int w = 0; !session.done(); ++w) {
    if (w == 60) session.request_shrink(4);
    (void)session.step();
  }
  const auto r = session.finish();
  std::printf("lifecycle_elastic: %d forced, %d shrinks, %d expands, "
              "%d losses, %d straggler events, tokens/s %.6g\n",
              r.forced_shrinks, r.shrinks, r.expands, r.worker_losses,
              r.straggler_events, r.tokens_per_sec);
}

void run_lifecycle_repack(const std::string& out) {
  using namespace dynmo;
  // Plain (non-elastic) re-packing on a 2-GPU-per-node deployment under a
  // payoff window that refuses most packs: the trace holds payoff-rejected
  // "repack" rows on the full and on the packed footprint, and one
  // accepted pack with its migrations and post-pack polish.
  Options opt;
  opt.session.pipeline_stages = 16;
  opt.session.num_microbatches = 32;
  opt.session.iterations = 6000;
  opt.session.sim_stride = 50;
  opt.session.rebalance_interval = 100;
  opt.session.mode = runtime::BalancingMode::DynMo;
  opt.session.algorithm = balance::Algorithm::Diffusion;
  opt.session.repack = true;
  opt.session.repack_interval = 500;
  opt.session.payoff_window_iters = 100.0;
  opt.session.deployment = cluster::Deployment::make_topology_aware(
      cluster::Topology::make_homogeneous(
          8, 2, hw::GpuSpec::h100_sxm5(),
          cluster::default_link(cluster::LinkType::NvLink),
          cluster::default_link(cluster::LinkType::InfiniBand)),
      16);
  opt.session.telemetry.dir = out;
  opt.session.telemetry.deterministic = true;
  opt.session.telemetry.per_layer = false;
  Session session(model::make_gpt({.num_blocks = 24,
                                   .include_embedding = false,
                                   .include_lm_head = false}),
                  UseCase::EarlyExit, opt);
  const auto r = session.run();
  std::printf("lifecycle_repack: %d packs, %d payoff rejections, "
              "tokens/s %.6g\n",
              r.repack_count, r.maps_rejected_payoff, r.tokens_per_sec);
}

int run_threaded_fault(const std::string& out, dynmo::comm::TransportKind k) {
  using namespace dynmo;
  // Mirrors tests/test_fault.cpp threaded_fault_config() + the
  // HeartbeatDetectedLossRecoversBitIdentically scenario.
  runtime::ThreadedConfig cfg;
  cfg.workers = 3;
  cfg.num_layers = 6;
  cfg.hidden = 16;
  cfg.batch_rows = 2;
  cfg.microbatches = 4;
  cfg.apply_weight_update = true;
  cfg.seed = 0xfee1;
  cfg.heartbeat_timeout_s = 0.15;
  cfg.transport = k;
  runtime::PlanPhase phase;
  phase.map = pipeline::StageMap::uniform(6, 3);
  phase.iterations = 10;
  const std::vector<runtime::PlanPhase> plan = {phase};

  // Fault-free twin first: the reference the recovery must reproduce.
  runtime::ThreadedPipeline clean(cfg);
  const auto ref = clean.run(plan);

  cfg.checkpoint_interval_iters = 4;
  cfg.fault.losses = {{.iter = 6, .worker = 2}};
  cfg.telemetry.dir = out;
  cfg.telemetry.deterministic = true;
  runtime::ThreadedPipeline faulty(cfg);
  const auto rep = faulty.run(plan);

  const bool match = rep.output_checksum == ref.output_checksum &&
                     rep.weight_checksums == ref.weight_checksums;
  const std::string path = out + "/checksums.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "scenario threaded_fault\n");
  std::fprintf(f, "output_checksum %016" PRIx64 "\n", rep.output_checksum);
  for (std::size_t l = 0; l < rep.weight_checksums.size(); ++l) {
    std::fprintf(f, "weight_checksum %zu %016" PRIx64 "\n", l,
                 rep.weight_checksums[l]);
  }
  std::fprintf(f, "worker_losses %d\n", rep.worker_losses);
  std::fprintf(f, "restarts %d\n", rep.restarts);
  std::fprintf(f, "bytes_checkpoint %" PRIu64 "\n", rep.bytes_checkpoint);
  std::fprintf(f, "fault_free_match %d\n", match ? 1 : 0);
  std::fclose(f);

  if (!match) {
    std::fprintf(stderr,
                 "FATAL: recovery checksums diverge from the fault-free "
                 "twin — refusing to emit a golden that breaks the "
                 "bit-identical-recovery contract\n");
    return 2;
  }
  std::printf("threaded_fault[%s]: %d losses recovered, output %016" PRIx64
              " (matches fault-free twin)\n",
              comm::to_string(k), rep.worker_losses, rep.output_checksum);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario, out;
  auto kind = dynmo::comm::TransportKind::InProc;
  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(64);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--scenario") == 0) {
      scenario = need("--scenario");
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out = need("--out");
    } else if (std::strcmp(argv[i], "--transport") == 0) {
      kind = dynmo::comm::parse_transport(need("--transport"));
    } else {
      return usage(argv[0]);
    }
  }
  if (scenario.empty() || out.empty()) return usage(argv[0]);

  try {
    if (scenario == "session") {
      run_session(out);
      return 0;
    }
    if (scenario == "large_grid") {
      run_large_grid(out);
      return 0;
    }
    if (scenario == "lifecycle_elastic") {
      run_lifecycle_elastic(out);
      return 0;
    }
    if (scenario == "lifecycle_repack") {
      run_lifecycle_repack(out);
      return 0;
    }
    if (scenario == "threaded_fault") {
      return run_threaded_fault(out, kind);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown scenario '%s'\n", scenario.c_str());
  return usage(argv[0]);
}
