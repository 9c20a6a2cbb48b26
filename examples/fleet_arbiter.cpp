// Three tenants, one 16-GPU pool (docs/FLEET.md): the fleet::Arbiter
// mediating elastic training jobs of different priority classes.
//
// A low-priority batch job arrives first and soaks the pool.  A normal
// job fits into what is left.  Then a high-priority job shows up wanting
// six GPUs from an exhausted pool — the arbiter prices a preemption with
// the payoff-window rule and forces the batch job down through the same
// checkpoint-coordinated shrink path a voluntary elastic transition
// takes, earmarking the freed GPUs for the newcomer.  Every verdict lands
// in the fleet_decisions log printed at the end.
//
//   ./build/example_fleet_arbiter
//
// Exits non-zero if no preemption happened — CI runs this as a smoke
// test of the whole admit/preempt/finish loop.
#include <cstdio>
#include <memory>

#include "fleet/arbiter.hpp"

namespace {

using namespace dynmo;

fleet::JobSpec make_job(const char* name, int priority, double weight,
                        int min_gpus, int max_gpus, double arrival_s,
                        std::int64_t iterations) {
  fleet::JobSpec spec;
  spec.name = name;
  spec.priority = priority;
  spec.weight = weight;
  spec.min_gpus = min_gpus;
  spec.max_gpus = max_gpus;
  spec.arrival_s = arrival_s;
  // The mutable capture parks the owning model handle in the closure; the
  // arbiter keeps the factory alive until the job's session is gone.
  spec.factory = [=, model = std::shared_ptr<model::ModelDesc>()](
                     int initial, repack::ControlPlane* cluster) mutable {
    model = std::make_shared<model::ModelDesc>(model::make_gpt(
        {.num_blocks = static_cast<std::size_t>(3 * max_gpus),
         .include_embedding = false,
         .include_lm_head = false}));
    runtime::SessionConfig cfg;
    cfg.pipeline_stages = max_gpus;
    cfg.micro_batch = 2;
    cfg.num_microbatches = 8;
    cfg.iterations = iterations;
    cfg.sim_stride = 10;
    cfg.rebalance_interval = 50;
    cfg.mode = runtime::BalancingMode::DynMo;
    cfg.algorithm = balance::Algorithm::Partition;
    cfg.initial_active_workers = initial;
    cfg.elastic.enabled = true;
    cfg.elastic.interval = 100;
    cfg.elastic.min_workers = min_gpus;
    cfg.elastic.cluster = cluster;
    cfg.elastic.pod = name;
    cfg.elastic.restart_alpha_s = 0.5;
    cfg.elastic.checkpoint_bw = 16.0 * 1024 * 1024 * 1024;
    // The arbiter's event clock advances by each step()'s seconds; zeroing
    // the measured decide time keeps wall-clock jitter from reordering
    // fleet events between runs.
    cfg.telemetry.deterministic = true;
    return std::make_unique<runtime::TrainingSession>(*model, cfg, nullptr);
  };
  return spec;
}

}  // namespace

int main() {
  fleet::ArbiterConfig cfg;
  cfg.total_gpus = 16;
  cfg.payoff_window_iters = 600.0;
  fleet::Arbiter arbiter(cfg);

  arbiter.submit(make_job("low", /*priority=*/0, /*weight=*/1.0,
                          /*min=*/2, /*max=*/12, /*arrival=*/0.0,
                          /*iters=*/1000));
  arbiter.submit(make_job("normal", 1, 1.0, 4, 8, 2.0, 600));
  arbiter.submit(make_job("high", 5, 2.0, 6, 8, 5.0, 300));

  const auto r = arbiter.run();

  std::printf("%8s %-8s %-8s %-4s %9s %11s %14s %s\n", "t", "job", "kind",
              "ok", "gpus", "pool free", "gain/cost", "victim");
  for (const auto& d : r.decisions) {
    std::printf("%7.2fs %-8s %-8s %-4s %4lld->%-4lld %5lld->%-5lld ",
                d.time_s, d.job.c_str(), d.kind.c_str(),
                d.accepted ? "yes" : "no",
                static_cast<long long>(d.gpus_before),
                static_cast<long long>(d.gpus_after),
                static_cast<long long>(d.pool_free_before),
                static_cast<long long>(d.pool_free_after));
    if (d.kind == "preempt" || d.kind == "grant" || d.kind == "deny") {
      std::printf("%6.1f/%-7.1f", d.projected_gain_gpu_s,
                  d.exposed_cost_gpu_s);
    } else {
      std::printf("%14s", "-");
    }
    std::printf(" %s\n", d.victim.c_str());
  }

  std::printf("\n%-8s %4s %9s %9s %10s %9s\n", "job", "prio", "arrived",
              "admitted", "finished", "preempted");
  for (const auto& j : r.jobs) {
    std::printf("%-8s %4d %8.2fs %8.2fs %9.2fs %9d\n", j.name.c_str(),
                j.priority, j.arrival_s, j.admitted_s, j.finished_s,
                j.preemptions);
  }
  std::printf("\nfleet: makespan %.1fs, utilization %.1f%%, "
              "%.0f tokens/s aggregate, %d preemption(s)\n",
              r.makespan_s, 100.0 * r.utilization,
              r.aggregate_tokens_per_sec, r.preemptions);

  if (r.preemptions == 0) {
    std::fprintf(stderr, "FAIL: the high-priority arrival should have "
                         "preempted the batch job\n");
    return 1;
  }
  return 0;
}
