// Integration tests for the threaded pipeline runtime: real worker threads,
// real tensors, real migrations.  The central invariant is the paper's
// "no impact on model accuracy" claim: any stage map, any migration
// history, and any re-packing must leave the math bit-identical.
#include <gtest/gtest.h>

#include "runtime/threaded.hpp"

namespace dynmo::runtime {
namespace {

ThreadedConfig small_config() {
  ThreadedConfig cfg;
  cfg.workers = 4;
  cfg.num_layers = 8;
  cfg.hidden = 16;
  cfg.batch_rows = 3;
  cfg.microbatches = 4;
  return cfg;
}

TEST(Threaded, RunsAndReports) {
  ThreadedPipeline pipe(small_config());
  PlanPhase phase;
  phase.map = pipeline::StageMap::uniform(8, 4);
  phase.iterations = 3;
  const auto report = pipe.run({phase});
  EXPECT_EQ(report.iterations_run, 3);
  EXPECT_NE(report.output_checksum, 0u);
  EXPECT_EQ(report.bytes_migrated, 0u);
  EXPECT_EQ(report.weight_checksums.size(), 8u);
  for (auto c : report.weight_checksums) EXPECT_NE(c, 0u);
}

TEST(Threaded, OutputIndependentOfStageMap) {
  // DynMo's core correctness contract: placement never changes results.
  const auto cfg = small_config();
  std::vector<pipeline::StageMap> maps = {
      pipeline::StageMap::uniform(8, 4),
      pipeline::StageMap::from_boundaries({0, 1, 2, 3, 8}),
      pipeline::StageMap::from_boundaries({0, 6, 7, 8, 8}),
      pipeline::StageMap::from_boundaries({0, 0, 0, 8, 8}),
  };
  std::optional<std::uint64_t> expected;
  for (const auto& map : maps) {
    ThreadedPipeline pipe(cfg);
    PlanPhase phase;
    phase.map = map;
    phase.iterations = 2;
    const auto report = pipe.run({phase});
    if (!expected) {
      expected = report.output_checksum;
    } else {
      EXPECT_EQ(report.output_checksum, *expected) << map.to_string();
    }
  }
}

TEST(Threaded, MigrationPreservesWeightsAndOutputs) {
  const auto cfg = small_config();
  // Run A: stay on the initial map the whole time.
  ThreadedPipeline pipe_a(cfg);
  PlanPhase stay;
  stay.map = pipeline::StageMap::uniform(8, 4);
  stay.iterations = 4;
  const auto a = pipe_a.run({stay});

  // Run B: same 4 iterations, but migrate layers twice along the way.
  ThreadedPipeline pipe_b(cfg);
  PlanPhase p1, p2, p3;
  p1.map = pipeline::StageMap::uniform(8, 4);
  p1.iterations = 1;
  p2.map = pipeline::StageMap::from_boundaries({0, 3, 5, 6, 8});
  p2.iterations = 2;
  p3.map = pipeline::StageMap::from_boundaries({0, 1, 4, 6, 8});
  p3.iterations = 1;
  const auto b = pipe_b.run({p1, p2, p3});

  EXPECT_EQ(a.output_checksum, b.output_checksum);
  EXPECT_EQ(a.weight_checksums, b.weight_checksums);
  EXPECT_GT(b.bytes_migrated, 0u);
}

TEST(Threaded, WeightUpdatesStayDeterministicUnderMigration) {
  auto cfg = small_config();
  cfg.apply_weight_update = true;
  ThreadedPipeline pipe_a(cfg);
  PlanPhase stay;
  stay.map = pipeline::StageMap::uniform(8, 4);
  stay.iterations = 3;
  const auto a = pipe_a.run({stay});

  ThreadedPipeline pipe_b(cfg);
  PlanPhase p1 = stay;
  p1.iterations = 1;
  PlanPhase p2;
  p2.map = pipeline::StageMap::from_boundaries({0, 2, 4, 6, 8});
  p2.iterations = 2;
  const auto b = pipe_b.run({p1, p2});

  EXPECT_EQ(a.weight_checksums, b.weight_checksums);
}

TEST(Threaded, DistributedPruneSparsifiesWeights) {
  const auto cfg = small_config();
  ThreadedPipeline pipe(cfg);
  PlanPhase phase;
  phase.map = pipeline::StageMap::uniform(8, 4);
  phase.iterations = 1;
  phase.prune_sparsity = 0.75;
  const auto report = pipe.run({phase});
  const std::size_t total = cfg.num_layers * cfg.hidden * cfg.hidden;
  EXPECT_NEAR(static_cast<double>(report.weights_nnz),
              0.25 * static_cast<double>(total),
              0.01 * static_cast<double>(total));
}

TEST(Threaded, PruneThenTrainStillDeterministic) {
  const auto cfg = small_config();
  const auto run_once = [&cfg] {
    ThreadedPipeline pipe(cfg);
    PlanPhase p1;
    p1.map = pipeline::StageMap::uniform(8, 4);
    p1.iterations = 1;
    PlanPhase p2 = p1;
    p2.prune_sparsity = 0.5;
    p2.iterations = 2;
    return pipe.run({p1, p2});
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.output_checksum, b.output_checksum);
  EXPECT_EQ(a.weight_checksums, b.weight_checksums);
}

TEST(Threaded, RepackReleasesWorkersAndContinues) {
  const auto cfg = small_config();
  ThreadedPipeline pipe(cfg);
  PlanPhase p1;
  p1.map = pipeline::StageMap::uniform(8, 4);
  p1.iterations = 2;
  // Phase 2: consolidate onto workers 0-1; workers 2-3 released after
  // their layers migrate away.
  PlanPhase p2;
  p2.map = pipeline::StageMap::from_boundaries({0, 4, 8, 8, 8});
  p2.iterations = 2;
  p2.active = std::vector<bool>{true, true, false, false};
  const auto report = pipe.run({p1, p2});
  EXPECT_EQ(report.iterations_run, 4);
  EXPECT_GT(report.bytes_migrated, 0u);

  // Identical math to a run that never repacked.
  ThreadedPipeline ref(cfg);
  PlanPhase stay = p1;
  stay.iterations = 4;
  EXPECT_EQ(report.output_checksum, ref.run({stay}).output_checksum);
}

TEST(Threaded, ExpandRejoinsReleasedWorkersViaCheckpoint) {
  // The full elastic lifecycle on real threads: shrink onto 2 workers,
  // then a restart phase re-activates the released ones, whose weights
  // arrive via checkpoint reload — and the math stays bit-identical to a
  // run that never breathed.
  const auto cfg = small_config();
  ThreadedPipeline pipe(cfg);
  PlanPhase p1;
  p1.map = pipeline::StageMap::uniform(8, 4);
  p1.iterations = 2;
  PlanPhase p2;  // shrink: consolidate onto workers 0-1, release 2-3
  p2.map = pipeline::StageMap::from_boundaries({0, 4, 8, 8, 8});
  p2.iterations = 2;
  p2.active = std::vector<bool>{true, true, false, false};
  PlanPhase p3;  // expand: workers 2-3 re-join through the checkpoint
  p3.map = pipeline::StageMap::uniform(8, 4);
  p3.iterations = 2;
  p3.restart_active = std::vector<bool>{true, true, true, true};
  const auto report = pipe.run({p1, p2, p3});
  EXPECT_EQ(report.iterations_run, 6);
  EXPECT_EQ(report.restarts, 1);
  EXPECT_GT(report.bytes_checkpoint, 0u);
  EXPECT_GT(report.worker_busy_s[2], 0.0);  // re-joined and worked

  ThreadedPipeline ref(cfg);
  PlanPhase stay = p1;
  stay.iterations = 6;
  const auto r = ref.run({stay});
  EXPECT_EQ(report.output_checksum, r.output_checksum);
  EXPECT_EQ(report.weight_checksums, r.weight_checksums);
}

TEST(Threaded, RestartWithoutReleaseIsACheckpointRoundTrip) {
  // A restart over the unchanged active set reloads every worker's
  // weights from the serialized checkpoint mid-run — determinism means
  // the byte format preserved them exactly.
  const auto cfg = small_config();
  ThreadedPipeline pipe(cfg);
  PlanPhase p1;
  p1.map = pipeline::StageMap::uniform(8, 4);
  p1.iterations = 2;
  PlanPhase p2;
  p2.map = pipeline::StageMap::from_boundaries({0, 3, 5, 6, 8});
  p2.iterations = 2;
  p2.restart_active = std::vector<bool>{true, true, true, true};
  const auto report = pipe.run({p1, p2});
  EXPECT_EQ(report.restarts, 1);
  EXPECT_EQ(report.bytes_migrated, 0u);  // reload, not P2P migration

  ThreadedPipeline ref(cfg);
  PlanPhase stay = p1;
  stay.iterations = 4;
  EXPECT_EQ(report.output_checksum, ref.run({stay}).output_checksum);
}

TEST(Threaded, WeightUpdatesSurviveAnElasticRestart) {
  auto cfg = small_config();
  cfg.apply_weight_update = true;
  ThreadedPipeline pipe(cfg);
  PlanPhase p1;
  p1.map = pipeline::StageMap::uniform(8, 4);
  p1.iterations = 2;
  PlanPhase p2;
  p2.map = pipeline::StageMap::from_boundaries({0, 4, 8, 8, 8});
  p2.iterations = 1;
  p2.active = std::vector<bool>{true, true, false, false};
  PlanPhase p3;
  p3.map = pipeline::StageMap::uniform(8, 4);
  p3.iterations = 1;
  p3.restart_active = std::vector<bool>{true, true, true, true};
  const auto breathed = pipe.run({p1, p2, p3});

  ThreadedPipeline ref(cfg);
  PlanPhase stay = p1;
  stay.iterations = 4;
  EXPECT_EQ(breathed.weight_checksums, ref.run({stay}).weight_checksums);
}

TEST(Threaded, BusyTimeConcentratesOnHostingWorkers) {
  const auto cfg = small_config();
  ThreadedPipeline pipe(cfg);
  PlanPhase phase;
  phase.map = pipeline::StageMap::from_boundaries({0, 8, 8, 8, 8});
  phase.iterations = 3;
  const auto report = pipe.run({phase});
  EXPECT_GT(report.worker_busy_s[0], 0.0);
  EXPECT_EQ(report.worker_busy_s[2], 0.0);
}

TEST(Threaded, RejectsMalformedPlans) {
  ThreadedPipeline pipe(small_config());
  EXPECT_THROW((void)pipe.run({}), Error);
  PlanPhase bad;
  bad.map = pipeline::StageMap::uniform(8, 3);  // wrong worker count
  EXPECT_THROW((void)pipe.run({bad}), Error);
  PlanPhase bad_release;
  bad_release.map = pipeline::StageMap::from_boundaries({0, 0, 4, 6, 8});
  bad_release.active = std::vector<bool>{false, true, true, true};
  EXPECT_THROW((void)pipe.run({bad_release}), Error);  // rank 0 must stay

  PlanPhase bad_restart;
  bad_restart.map = pipeline::StageMap::uniform(8, 4);
  bad_restart.restart_active = std::vector<bool>{false, true, true, true};
  EXPECT_THROW((void)pipe.run({bad_restart}), Error);  // rank 0 must stay
  bad_restart.restart_active = std::vector<bool>{true, true, true};
  EXPECT_THROW((void)pipe.run({bad_restart}), Error);  // mask size
  bad_restart.restart_active = std::vector<bool>{true, true, true, true};
  bad_restart.active = std::vector<bool>{true, true, true, true};
  EXPECT_THROW((void)pipe.run({bad_restart}), Error);  // release xor restart
}

// Plans that would only fail inside a worker thread (where a throw ends
// the process in std::terminate) are rejected on the caller's thread.
TEST(Threaded, RejectsLayersOnReleasedWorkersBeforeStarting) {
  ThreadedPipeline pipe(small_config());
  PlanPhase restart;
  restart.map = pipeline::StageMap::uniform(8, 4);
  restart.iterations = 1;
  restart.restart_active = std::vector<bool>{true, true, true, false};
  EXPECT_THROW((void)pipe.run({restart}), Error);

  PlanPhase release;
  release.map = pipeline::StageMap::uniform(8, 4);
  release.iterations = 1;
  release.active = std::vector<bool>{true, true, false, false};
  EXPECT_THROW((void)pipe.run({release}), Error);
}

TEST(Threaded, RejectsReleaseMaskThatRejoinsAReleasedWorker) {
  ThreadedPipeline pipe(small_config());
  PlanPhase p1;
  p1.map = pipeline::StageMap::from_boundaries({0, 4, 8, 8, 8});
  p1.iterations = 1;
  p1.active = std::vector<bool>{true, true, false, false};
  PlanPhase p2 = p1;
  p2.map = pipeline::StageMap::uniform(8, 4);
  p2.active = std::vector<bool>{true, true, true, true};
  EXPECT_THROW((void)pipe.run({p1, p2}), Error);
}

}  // namespace
}  // namespace dynmo::runtime
