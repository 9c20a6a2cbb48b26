// Telemetry round-trip: TraceWriter -> TraceReader, session traces, the
// bit-for-bit replay contract (docs/TELEMETRY.md), and the observer-effect
// guarantee that a disabled trace changes nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "balance/replay.hpp"
#include "comm/cost_model.hpp"
#include "core/error.hpp"
#include "dynamic/dynamism.hpp"
#include "dynmo/dynmo.hpp"
#include "model/layer.hpp"
#include "repack/elastic.hpp"
#include "runtime/session.hpp"
#include "runtime/threaded.hpp"
#include "telemetry/codec.hpp"
#include "telemetry/trace_reader.hpp"
#include "telemetry/trace_writer.hpp"

namespace dynmo {

// gtest prints a failed EXPECT_EQ operand through PrintTo: name each field
// with its encoded value instead of dumping the struct's bytes.
namespace telemetry {

template <typename Owner>
void print_fields(const Owner& owner, std::span<const FieldSpec<Owner>> fields,
                  std::ostream* os) {
  std::string out = "{";
  for (const FieldSpec<Owner>& f : fields) {
    if (out.size() > 1) out += ", ";
    out += f.name;
    out += '=';
    append_field(out, owner, f.field);
  }
  *os << out << '}';
}

void PrintTo(const RunInfo& r, std::ostream* os) {
  print_fields(r, run_fields(), os);
}
template <typename Row>
void print_row(const Row& row, std::ostream* os) {
  print_fields(row, table_spec<Row>().columns, os);
}
void PrintTo(const IterationRow& r, std::ostream* os) { print_row(r, os); }
void PrintTo(const StageLoadRow& r, std::ostream* os) { print_row(r, os); }
void PrintTo(const RebalanceDecisionRow& r, std::ostream* os) {
  print_row(r, os);
}
void PrintTo(const MigrationRow& r, std::ostream* os) { print_row(r, os); }
void PrintTo(const ElasticTransitionRow& r, std::ostream* os) {
  print_row(r, os);
}
void PrintTo(const FaultEventRow& r, std::ostream* os) { print_row(r, os); }
void PrintTo(const FleetDecisionRow& r, std::ostream* os) {
  print_row(r, os);
}

}  // namespace telemetry

namespace {

std::string trace_dir(const char* name) {
  return ::testing::TempDir() + "dynmo_trace_" + name;
}

// ------------------------------------------------------------ writer/reader

TEST(Telemetry, WriterReaderRoundTrip) {
  const auto dir = trace_dir("roundtrip");

  // Every RunInfo field off its default, so a reader that drops one fails.
  telemetry::RunInfo run;
  run.producer = "session";
  run.transport = "socket";
  run.machine = "node-7";
  run.iterations = 100;
  run.sim_stride = 2;
  run.rebalance_interval = 3;
  run.pipeline_stages = 4;
  run.data_parallel = 2;
  run.seed = 0xfeedfacecafebeefULL;  // above INT64_MAX: the bit pattern
  run.mode = "DynMo";
  run.algorithm = "diffusion";
  run.balance_by = "param";
  run.mem_capacity = 80.0 * (1ull << 30);
  run.min_bottleneck_gain = 0.015;
  run.payoff_window_iters = 20.0;
  run.migration_cost_multiplier = 1.5;
  run.migration_exposed_fraction = 0.25;
  run.gamma = 0.7;
  run.stage_to_rank = {0, 2, 4, 6};
  run.capacities = {1.0, 1.0, 0.5, 0.5};
  run.layer_params = {1e6, 2e6};

  telemetry::IterationRow it;
  it.iter = 42;
  it.time_s = 1.0 / 3.0;  // not exactly representable in short decimal
  it.event_s = 1e-17;
  it.bottleneck_s = 0.1;
  it.idleness = 0.25;
  it.bubble_ratio = 0.0625;
  it.active_workers = 4;
  it.compute_fraction = 0.9;
  it.rebalanced = true;
  it.stall_s = 6.02214076e23;

  telemetry::StageLoadRow sl;
  sl.iter = 42;
  sl.stage = 3;
  sl.rank = 6;
  sl.layer_begin = 5;
  sl.layer_end = 8;
  sl.load_s = 0.3;
  sl.mem_bytes = 1.5e9;
  sl.layer_s = {0.1, 1.0 / 7.0, -0.0};
  sl.layer_mem = {5e8, 5e8, 5e8};

  telemetry::RebalanceDecisionRow rd;
  rd.iter = 42;
  rd.trigger = "periodic";
  rd.algorithm = "diff\"usion\\n";  // exercises JSON string escaping
  rd.balance_by = "time";
  rd.decision = "accepted";
  rd.projected_gain_s = 0.02;
  rd.exposed_cost_s = 0.005;
  rd.candidate_bytes = 1e9;
  rd.migrated_bytes = 1e9;
  rd.migrated_layers = 2;
  rd.imbalance_before = 1.4;
  rd.imbalance_after = 1.05;
  rd.decide_s = 3.1e-4;

  telemetry::MigrationRow mg;
  mg.iter = 42;
  mg.trigger = "periodic";
  mg.layer = 7;
  mg.from_stage = 3;
  mg.to_stage = 2;
  mg.bytes = 5e8;

  telemetry::ElasticTransitionRow et;
  et.iter = 500;
  et.kind = "shrink";
  et.accepted = true;
  et.workers_before = 8;
  et.workers_after = 5;
  et.stall_s = 2.75;
  et.alpha_s = 0.5;
  et.bootstrap_s = 0.25;
  et.ckpt_write_s = 1.0;
  et.ckpt_read_s = 1.0;
  et.projected_gain_s = 30.0;
  et.migrated_bytes = 0.0;

  telemetry::FaultEventRow fe;
  fe.iter = 450;
  fe.kind = "worker_loss";
  fe.worker = 3;
  fe.multiplier = 1.0;
  fe.workers_before = 8;
  fe.workers_after = 7;
  fe.stall_s = 4.25;
  fe.alpha_s = 0.5;
  fe.bootstrap_s = 0.25;
  fe.ckpt_write_s = 1.0;
  fe.ckpt_read_s = 1.0;
  fe.lost_work_s = 1.5;
  fe.lost_iters = 50;

  telemetry::FleetDecisionRow fd;
  fd.time_s = 123.5;
  fd.job = "job-a";
  fd.kind = "preempt";
  fd.accepted = true;
  fd.priority = 2;
  fd.gpus_before = 8;
  fd.gpus_after = 5;
  fd.pool_free_before = 0;
  fd.pool_free_after = 3;
  fd.fair_share = 5.25;
  fd.projected_gain_gpu_s = 900.0;
  fd.exposed_cost_gpu_s = 120.0;
  fd.victim = "job-b";

  {
    telemetry::TelemetryConfig cfg;
    cfg.dir = dir;
    telemetry::TraceWriter writer(cfg, run);
    writer.write(it);
    writer.write(sl);
    writer.write(rd);
    writer.write(mg);
    writer.write(et);
    writer.write(fe);
    writer.write(fd);
    EXPECT_EQ(writer.rows_written("iterations"), 1);
    EXPECT_EQ(writer.rows_written("elastic_transitions"), 1);
    EXPECT_EQ(writer.rows_written("fleet_decisions"), 1);
    writer.finalize();
  }

  telemetry::TraceReader reader(dir);
  EXPECT_EQ(reader.catalog().format, telemetry::kTraceFormat);
  EXPECT_EQ(reader.catalog().schema_version, telemetry::kSchemaVersion);
  EXPECT_EQ(reader.catalog().tables.size(), 7u);

  EXPECT_EQ(reader.run(), run);

  // Typed rows survive the JSONL round trip exactly, doubles included.
  ASSERT_EQ(reader.iterations().size(), 1u);
  EXPECT_EQ(reader.iterations()[0], it);
  ASSERT_EQ(reader.stage_loads().size(), 1u);
  EXPECT_EQ(reader.stage_loads()[0], sl);
  ASSERT_EQ(reader.rebalance_decisions().size(), 1u);
  EXPECT_EQ(reader.rebalance_decisions()[0], rd);
  ASSERT_EQ(reader.migrations().size(), 1u);
  EXPECT_EQ(reader.migrations()[0], mg);
  ASSERT_EQ(reader.elastic_transitions().size(), 1u);
  EXPECT_EQ(reader.elastic_transitions()[0], et);
  ASSERT_EQ(reader.fault_events().size(), 1u);
  EXPECT_EQ(reader.fault_events()[0], fe);
  ASSERT_EQ(reader.fleet_decisions().size(), 1u);
  EXPECT_EQ(reader.fleet_decisions()[0], fd);
}

// A malformed row names its table, line and column.
TEST(Telemetry, DecodeErrorsNameTableLineAndColumn) {
  const auto dir = trace_dir("decode_errors");
  {
    telemetry::TelemetryConfig cfg;
    cfg.dir = dir;
    telemetry::TraceWriter writer(cfg, telemetry::RunInfo{});
    writer.write(telemetry::FaultEventRow{});
  }
  const std::string path = dir + "/fault_events.jsonl";
  std::string row;
  {
    std::ifstream in(path);
    std::getline(in, row);
  }
  const auto expect_error = [&](const std::string& bad_row,
                                const std::string& column) {
    std::ofstream(path) << row << "\n" << bad_row << "\n";
    try {
      (void)telemetry::TraceReader(dir).fault_events();
      ADD_FAILURE() << "no error for " << bad_row;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("fault_events:2:"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + column + "'"), std::string::npos) << what;
    }
  };
  // The writer's row with its last column dropped ...
  const auto last = row.rfind(",\"lost_iters\"");
  ASSERT_NE(last, std::string::npos);
  expect_error(row.substr(0, last) + "}", "lost_iters");
  // ... and with a string where an integer belongs.
  const auto worker = row.find("\"worker\":0");
  ASSERT_NE(worker, std::string::npos);
  std::string mistyped = row;
  mistyped.replace(worker, 10, "\"worker\":\"3\"");
  expect_error(mistyped, "worker");
}

TEST(Telemetry, ReaderRejectsMissingDirectory) {
  EXPECT_THROW(telemetry::TraceReader("/nonexistent/dynmo_trace"), Error);
}

// ------------------------------------------------------------ session trace

Options traced_options(const std::string& dir) {
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
  opt.session.telemetry.dir = dir;
  return opt;
}

model::ModelDesc traced_model() {
  return model::make_gpt({.num_blocks = 16,
                          .include_embedding = false,
                          .include_lm_head = false});
}

TEST(Telemetry, SessionTraceMatchesCatalog) {
  const auto dir = trace_dir("session");
  const auto opt = traced_options(dir);
  Session session(traced_model(), UseCase::SparseAttention, opt);
  const auto result = session.run();
  EXPECT_GT(result.tokens_per_sec, 0.0);

  telemetry::TraceReader reader(dir);
  EXPECT_EQ(reader.run().producer, "session");
  EXPECT_EQ(reader.run().iterations, 400);
  EXPECT_EQ(reader.run().pipeline_stages, 8);
  EXPECT_EQ(reader.run().rebalance_interval, 1);

  // 400 iterations at stride 10 -> 40 simulated frames.
  const auto iterations = reader.iterations();
  const auto stage_loads = reader.stage_loads();
  ASSERT_EQ(iterations.size(), 40u);
  EXPECT_EQ(stage_loads.size(), 40u * 8u);

  // Catalog row counts agree with what the files actually hold.
  for (const auto& t : reader.catalog().tables) {
    if (t.name == "iterations") {
      EXPECT_EQ(t.rows, 40);
    }
    if (t.name == "stage_loads") {
      EXPECT_EQ(t.rows, 40 * 8);
    }
    if (t.name == "rebalance_decisions") {
      EXPECT_EQ(t.rows, static_cast<std::int64_t>(
                            reader.rebalance_decisions().size()));
    }
  }

  // Every frame's stage rows tile the layer range contiguously.
  for (std::size_t f = 0; f < 40; ++f) {
    std::int64_t next = 0;
    for (std::size_t s = 0; s < 8; ++s) {
      const auto& row = stage_loads[f * 8 + s];
      EXPECT_EQ(row.iter, iterations[f].iter);
      EXPECT_EQ(row.stage, static_cast<std::int64_t>(s));
      EXPECT_EQ(row.layer_begin, next);
      next = row.layer_end;
      EXPECT_EQ(row.layer_s.size(),
                static_cast<std::size_t>(row.layer_end - row.layer_begin));
    }
    EXPECT_EQ(next, 16);  // all layers covered
  }

  // Every-iteration cadence: each simulated frame is a rebalance point.
  for (const auto& row : iterations) EXPECT_TRUE(row.rebalanced);
  EXPECT_EQ(static_cast<int>(reader.rebalance_decisions().size()),
            result.rebalance_count);
}

TEST(Telemetry, ReplayReproducesSessionBitForBit) {
  const auto dir = trace_dir("replay");
  Session session(traced_model(), UseCase::SparseAttention,
                  traced_options(dir));
  const auto recorded = session.run();

  telemetry::TraceReader reader(dir);
  const comm::CostModel net{};
  const auto loads = reader.replayed_loads();
  const auto replayed = balance::replay(loads, reader.replay_config(), net);

  const auto iterations = reader.iterations();
  ASSERT_EQ(replayed.bottleneck_s.size(), iterations.size());
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    // Exact double equality: the determinism contract extended to traces.
    EXPECT_EQ(replayed.bottleneck_s[i], iterations[i].bottleneck_s)
        << "frame " << i << " (iter " << iterations[i].iter << ")";
  }
  EXPECT_EQ(replayed.maps_accepted, recorded.maps_accepted);
  EXPECT_EQ(replayed.maps_rejected_payoff, recorded.maps_rejected_payoff);
}

TEST(Telemetry, DifferentConfigReplayAnswersWhatIf) {
  const auto dir = trace_dir("whatif");
  Session session(traced_model(), UseCase::SparseAttention,
                  traced_options(dir));
  (void)session.run();

  telemetry::TraceReader reader(dir);
  const comm::CostModel net{};
  const auto loads = reader.replayed_loads();
  const auto base = balance::replay(loads, reader.replay_config(), net);

  // Static-map counterfactual: same history, never rebalance.
  auto static_cfg = reader.replay_config();
  static_cfg.rebalance_interval = 0;
  const auto static_run = balance::replay(loads, static_cfg, net);
  EXPECT_EQ(static_run.rebalance_count, 0);
  EXPECT_EQ(static_run.maps_accepted, 0);
  EXPECT_EQ(static_run.migration_bytes, 0.0);
  ASSERT_EQ(static_run.bottleneck_s.size(), base.bottleneck_s.size());
  if (base.maps_accepted > 0) {
    // The recorded run moved layers for a reason: trajectories diverge.
    EXPECT_NE(static_run.total_bottleneck_s, base.total_bottleneck_s);
  }

  // Partition counterfactual on the same history stays well-formed.
  auto part_cfg = reader.replay_config();
  part_cfg.rebalance.algorithm = balance::Algorithm::Partition;
  const auto part = balance::replay(loads, part_cfg, net);
  EXPECT_EQ(part.bottleneck_s.size(), base.bottleneck_s.size());
  EXPECT_GT(part.total_bottleneck_s, 0.0);
  EXPECT_GT(part.rebalance_count, 0);
}

TEST(Telemetry, DisabledTelemetryDoesNotPerturbResults) {
  const auto dir = trace_dir("observer");
  auto on = traced_options(dir);
  auto off = on;
  off.session.telemetry.dir.clear();

  Session with_trace(traced_model(), UseCase::SparseAttention, on);
  const auto a = with_trace.run();
  Session without_trace(traced_model(), UseCase::SparseAttention, off);
  const auto b = without_trace.run();

  // Identical decision ledger either way: recording is pure observation.
  // (Time totals carry the *measured* decide wall-clock — jittery between
  // any two runs, telemetry or not — so the modeled remainder is compared
  // after subtracting it.)
  EXPECT_EQ(a.rebalance_count, b.rebalance_count);
  EXPECT_EQ(a.maps_accepted, b.maps_accepted);
  EXPECT_EQ(a.maps_rejected_payoff, b.maps_rejected_payoff);
  EXPECT_EQ(a.intra_node_migration_bytes, b.intra_node_migration_bytes);
  EXPECT_EQ(a.inter_node_migration_bytes, b.inter_node_migration_bytes);
  EXPECT_EQ(a.final_map.boundaries(), b.final_map.boundaries());
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].idleness, b.samples[i].idleness);
    EXPECT_EQ(a.samples[i].rebalanced, b.samples[i].rebalanced);
  }
  const double a_modeled = a.total_time_s - a.overhead.decide_s;
  const double b_modeled = b.total_time_s - b.overhead.decide_s;
  EXPECT_NEAR(a_modeled, b_modeled, 1e-9 * b_modeled);
}

TEST(Telemetry, PerLayerOffReplayThrows) {
  const auto dir = trace_dir("nolayers");
  auto opt = traced_options(dir);
  opt.session.telemetry.per_layer = false;
  opt.session.iterations = 100;
  Session session(traced_model(), UseCase::SparseAttention, opt);
  (void)session.run();

  telemetry::TraceReader reader(dir);
  // Stage totals are still there...
  EXPECT_FALSE(reader.stage_loads().empty());
  EXPECT_TRUE(reader.stage_loads()[0].layer_s.empty());
  // ...but replay needs the per-layer arrays.
  EXPECT_THROW((void)reader.replayed_loads(), Error);
}

TEST(Telemetry, ReplayConfigRejectsUnknownRunNames) {
  namespace fs = std::filesystem;
  const fs::path golden = fs::path(__FILE__).parent_path() / "golden";
  for (const char* name : {"session", "large_grid"}) {
    EXPECT_NO_THROW(
        (void)telemetry::TraceReader((golden / name).string()).replay_config())
        << name;
  }
  // A misspelled algorithm or balancing currency must not replay as
  // Diffusion / by-time: the copy's replay_config() names field and value.
  for (const auto& [field, bad] :
       {std::pair<std::string, std::string>{"algorithm", "partiton"},
        std::pair<std::string, std::string>{"balance_by", "by_flops"}}) {
    const fs::path dir = trace_dir(("badname_" + field).c_str());
    fs::remove_all(dir);
    fs::copy(golden / "session", dir);
    std::ifstream in(dir / "catalog.json");
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string catalog = buf.str();
    const std::string key = "\"" + field + "\": \"";
    const auto at = catalog.find(key);
    ASSERT_NE(at, std::string::npos) << field;
    const auto end = catalog.find('"', at + key.size());
    catalog.replace(at + key.size(), end - at - key.size(), bad);
    std::ofstream(dir / "catalog.json") << catalog;

    const telemetry::TraceReader reader(dir.string());
    try {
      (void)reader.replay_config();
      ADD_FAILURE() << "run." << field << " '" << bad << "' was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("run." + field), std::string::npos) << what;
      EXPECT_NE(what.find("'" + bad + "'"), std::string::npos) << what;
    }
    fs::remove_all(dir);
  }
}

// ----------------------------------------------------------- threaded trace

TEST(Telemetry, ThreadedRuntimeRecordsTrace) {
  const auto dir = trace_dir("threaded");
  runtime::ThreadedConfig cfg;
  cfg.workers = 4;
  cfg.num_layers = 8;
  cfg.hidden = 16;
  cfg.batch_rows = 3;
  cfg.microbatches = 4;
  cfg.telemetry.dir = dir;

  runtime::PlanPhase p1, p2;
  p1.map = pipeline::StageMap::uniform(8, 4);  // {0,2,4,6,8}
  p1.iterations = 3;
  p2.map = pipeline::StageMap::from_boundaries({0, 3, 5, 6, 8});
  p2.iterations = 2;

  runtime::ThreadedPipeline pipe(cfg);
  const auto report = pipe.run({p1, p2});
  EXPECT_EQ(report.iterations_run, 5);

  telemetry::TraceReader reader(dir);
  EXPECT_EQ(reader.run().producer, "threaded");
  EXPECT_EQ(reader.run().iterations, 5);
  EXPECT_EQ(reader.run().pipeline_stages, 4);

  const auto iterations = reader.iterations();
  ASSERT_EQ(iterations.size(), 5u);
  for (const auto& row : iterations) {
    EXPECT_GT(row.time_s, 0.0);  // measured wall-clock
    EXPECT_EQ(row.active_workers, 4);
  }

  // uniform{0,2,4,6,8} -> {0,3,5,6,8} re-homes layers 2 and 4 only.
  const auto migrations = reader.migrations();
  ASSERT_EQ(migrations.size(), 2u);
  std::vector<std::int64_t> moved;  // senders race: order is thread order
  for (const auto& m : migrations) {
    EXPECT_EQ(m.trigger, "phase");
    EXPECT_GT(m.bytes, 0.0);
    EXPECT_NE(m.from_stage, m.to_stage);
    moved.push_back(m.layer);
  }
  std::sort(moved.begin(), moved.end());
  EXPECT_EQ(moved, (std::vector<std::int64_t>{2, 4}));
}

// ------------------------------------------------------- elastic transitions

/// Same spike shape as tests/test_elastic.cpp: full depth, a concentrated
/// lull, full depth again — drives one shrink and one expand.
class TelemetrySpikeEngine : public dynamic::DynamismEngine {
 public:
  TelemetrySpikeEngine(std::int64_t lull_begin, std::int64_t lull_end,
                       std::size_t heavy_layers)
      : begin_(lull_begin), end_(lull_end), heavy_(heavy_layers) {}

  std::string name() const override { return "telemetry-spike"; }
  bool is_dynamism_point(std::int64_t iter) const override {
    return iter == begin_ || iter == end_;
  }
  void step(std::int64_t iter,
            std::span<model::LayerState> states) override {
    const bool lull = iter >= begin_ && iter < end_;
    for (std::size_t l = heavy_; l < states.size(); ++l) {
      states[l].compute_scale = lull ? 0.02 : 1.0;
    }
  }
  std::int64_t recommended_rebalance_interval() const override { return 100; }

 private:
  std::int64_t begin_, end_;
  std::size_t heavy_;
};

TEST(Telemetry, ElasticSessionRecordsTransitions) {
  const auto dir = trace_dir("elastic");
  runtime::SessionConfig cfg;
  cfg.pipeline_stages = 8;
  cfg.micro_batch = 2;
  cfg.num_microbatches = 16;
  cfg.iterations = 3000;
  cfg.sim_stride = 10;
  cfg.rebalance_interval = 100;
  cfg.mode = runtime::BalancingMode::DynMo;
  cfg.algorithm = balance::Algorithm::Partition;
  cfg.balance_by = balance::BalanceBy::Time;
  cfg.elastic.enabled = true;
  cfg.elastic.interval = 500;
  cfg.elastic.min_workers = 2;
  cfg.elastic.payoff_window_iters = 600.0;
  cfg.elastic.restart_alpha_s = 0.5;
  cfg.elastic.checkpoint_bw = 16.0 * 1024 * 1024 * 1024;
  repack::MockEckCluster eck(8);
  cfg.elastic.cluster = &eck;
  cfg.telemetry.dir = dir;

  const auto m = model::make_gpt({.num_blocks = 24,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  TelemetrySpikeEngine engine(1000, 2000, 4);
  runtime::TrainingSession session(m, cfg, &engine);
  const auto r = session.run();
  ASSERT_GE(r.shrinks, 1);
  ASSERT_GE(r.expands, 1);

  telemetry::TraceReader reader(dir);
  const auto transitions = reader.elastic_transitions();
  int shrinks = 0, expands = 0;
  double stall_total = 0.0;
  for (const auto& t : transitions) {
    if (!t.accepted) continue;
    if (t.kind == "shrink") {
      ++shrinks;
      EXPECT_LT(t.workers_after, t.workers_before);
    }
    if (t.kind == "expand") {
      ++expands;
      EXPECT_GT(t.workers_after, t.workers_before);
    }
    if (t.kind == "shrink" || t.kind == "expand") {
      // The itemized breakdown sums to the charged stall.
      EXPECT_DOUBLE_EQ(
          t.stall_s,
          t.alpha_s + t.bootstrap_s + t.ckpt_write_s + t.ckpt_read_s);
      stall_total += t.stall_s;
    }
  }
  EXPECT_EQ(shrinks, r.shrinks);
  EXPECT_EQ(expands, r.expands);
  EXPECT_DOUBLE_EQ(stall_total, r.restart_stall_s);

  // The per-iteration ledger mirrors the transitions: the stall shows up
  // on the samples (and trace rows) of the iterations that restarted.
  double sample_stall = 0.0;
  for (const auto& s : r.samples) sample_stall += s.stall_s;
  EXPECT_GE(sample_stall, stall_total);
  double row_stall = 0.0;
  for (const auto& row : reader.iterations()) row_stall += row.stall_s;
  EXPECT_DOUBLE_EQ(row_stall, r.restart_stall_s);
}

}  // namespace
}  // namespace dynmo
