#include "telemetry/schema.hpp"

#include "core/error.hpp"

namespace dynmo::telemetry {

const char* to_string(ColumnType t) {
  switch (t) {
    case ColumnType::Int64: return "int64";
    case ColumnType::Float64: return "float64";
    case ColumnType::Bool: return "bool";
    case ColumnType::String: return "string";
    case ColumnType::ListFloat64: return "list<float64>";
  }
  return "?";
}

namespace {

constexpr ColumnSpec<IterationRow> kIterationColumns[] = {
    {"iter", &IterationRow::iter, "iteration",
     "simulated iteration index (steps by sim_stride)"},
    {"time_s", &IterationRow::time_s, "s",
     "one iteration's pipeline makespan plus exposed DP time"},
    {"event_s", &IterationRow::event_s, "s",
     "one-off event time charged at this point (rebalance "
     "overheads, migrations, restart stalls)"},
    {"bottleneck_s", &IterationRow::bottleneck_s, "s",
     "max over stages of the per-layer fwd+bwd seconds hosted — "
     "the quantity replay reproduces bit-for-bit"},
    {"idleness", &IterationRow::idleness, "1",
     "average worker idleness of the pipeline timeline"},
    {"bubble_ratio", &IterationRow::bubble_ratio, "1",
     "pipeline bubble fraction"},
    {"active_workers", &IterationRow::active_workers, "workers",
     "workers hosting at least the possibility of layers (post "
     "re-pack/elastic)"},
    {"compute_fraction", &IterationRow::compute_fraction, "1",
     "dynamism engine's remaining-compute estimate"},
    {"rebalanced", &IterationRow::rebalanced, "1",
     "a rebalance point fired at this iteration"},
    {"stall_s", &IterationRow::stall_s, "s",
     "restart stall charged at this iteration (elastic "
     "transitions; 0 otherwise)"},
};

constexpr ColumnSpec<StageLoadRow> kStageLoadColumns[] = {
    {"iter", &StageLoadRow::iter, "iteration", "iteration index"},
    {"stage", &StageLoadRow::stage, "stage", "pipeline stage"},
    {"rank", &StageLoadRow::rank, "rank",
     "global rank hosting the stage (dp=0 view; equals stage "
     "without a deployment)"},
    {"layer_begin", &StageLoadRow::layer_begin, "layer",
     "first layer hosted by the stage"},
    {"layer_end", &StageLoadRow::layer_end, "layer",
     "one past the last layer hosted"},
    {"load_s", &StageLoadRow::load_s, "s",
     "sum of the stage's per-layer fwd+bwd seconds (per "
     "microbatch, the balancers' currency)"},
    {"mem_bytes", &StageLoadRow::mem_bytes, "bytes",
     "sum of the stage's per-layer resident bytes (activation "
     "residency under the map at iteration entry)"},
    {"layer_s", &StageLoadRow::layer_s, "s",
     "per-layer fwd+bwd seconds for [layer_begin, layer_end); "
     "empty when per-layer recording is off"},
    {"layer_mem", &StageLoadRow::layer_mem, "bytes",
     "per-layer resident bytes for [layer_begin, layer_end)"},
};

constexpr ColumnSpec<RebalanceDecisionRow> kRebalanceDecisionColumns[] = {
    {"iter", &RebalanceDecisionRow::iter, "iteration", "iteration index"},
    {"trigger", &RebalanceDecisionRow::trigger, "1",
     "periodic | post_pack | post_restart"},
    {"algorithm", &RebalanceDecisionRow::algorithm, "1",
     "partition | diffusion | hier_diffusion"},
    {"balance_by", &RebalanceDecisionRow::balance_by, "1", "time | param"},
    {"decision", &RebalanceDecisionRow::decision, "1",
     "accepted | rejected_bottleneck | rejected_payoff"},
    {"projected_gain_s", &RebalanceDecisionRow::projected_gain_s, "s",
     "candidate's projected per-iteration bottleneck gain"},
    {"exposed_cost_s", &RebalanceDecisionRow::exposed_cost_s, "s",
     "priced exposed migration cost the payoff rule weighed"},
    {"candidate_bytes", &RebalanceDecisionRow::candidate_bytes, "bytes",
     "bytes the candidate map would have moved"},
    {"migrated_bytes", &RebalanceDecisionRow::migrated_bytes, "bytes",
     "bytes actually moved (0 when rejected)"},
    {"migrated_layers", &RebalanceDecisionRow::migrated_layers, "layers",
     "layer transfers in the executed plan"},
    {"imbalance_before", &RebalanceDecisionRow::imbalance_before, "1",
     "load imbalance (paper Eq. 2) before"},
    {"imbalance_after", &RebalanceDecisionRow::imbalance_after, "1",
     "load imbalance after"},
    {"decide_s", &RebalanceDecisionRow::decide_s, "s",
     "measured decision wall-clock (machine-dependent)"},
};

constexpr ColumnSpec<MigrationRow> kMigrationColumns[] = {
    {"iter", &MigrationRow::iter, "iteration", "iteration index"},
    {"trigger", &MigrationRow::trigger, "1",
     "periodic | post_pack | post_restart | repack | phase"},
    {"layer", &MigrationRow::layer, "layer", "migrated layer"},
    {"from_stage", &MigrationRow::from_stage, "stage", "source stage"},
    {"to_stage", &MigrationRow::to_stage, "stage", "destination stage"},
    {"bytes", &MigrationRow::bytes, "bytes",
     "weights+grads+optimizer state moved (one DP replica)"},
};

constexpr ColumnSpec<ElasticTransitionRow> kElasticTransitionColumns[] = {
    {"iter", &ElasticTransitionRow::iter, "iteration", "iteration index"},
    {"kind", &ElasticTransitionRow::kind, "1",
     "repack | shrink | expand | preempt"},
    {"accepted", &ElasticTransitionRow::accepted, "1",
     "false when wanted but rejected by the payoff gate"},
    {"workers_before", &ElasticTransitionRow::workers_before, "workers",
     "active workers before the transition"},
    {"workers_after", &ElasticTransitionRow::workers_after, "workers",
     "active workers after (the wanted target when rejected)"},
    {"stall_s", &ElasticTransitionRow::stall_s, "s",
     "total stall the transition charges (restart stall, or the "
     "re-pack's migration wall-clock)"},
    {"alpha_s", &ElasticTransitionRow::alpha_s, "s",
     "restart breakdown: job-manager round-trip + respawn"},
    {"bootstrap_s", &ElasticTransitionRow::bootstrap_s, "s",
     "restart breakdown: binomial communicator bootstrap"},
    {"ckpt_write_s", &ElasticTransitionRow::ckpt_write_s, "s",
     "restart breakdown: busiest-shard checkpoint write"},
    {"ckpt_read_s", &ElasticTransitionRow::ckpt_read_s, "s",
     "restart breakdown: busiest-shard checkpoint reload"},
    {"projected_gain_s", &ElasticTransitionRow::projected_gain_s, "s",
     "per-iteration gain (expand) or freed GPU-time (shrink/"
     "repack) the payoff rule weighed"},
    {"migrated_bytes", &ElasticTransitionRow::migrated_bytes, "bytes",
     "re-pack transfer bytes; restarts move none (checkpoint "
     "reload instead)"},
};

constexpr ColumnSpec<FleetDecisionRow> kFleetDecisionColumns[] = {
    {"time_s", &FleetDecisionRow::time_s, "s",
     "fleet clock when the decision fired"},
    {"job", &FleetDecisionRow::job, "1", "pod name of the claimant"},
    {"kind", &FleetDecisionRow::kind, "1",
     "admit | grant | deny | release | preempt | finish"},
    {"accepted", &FleetDecisionRow::accepted, "1",
     "false for deny rows and refused preemptions"},
    {"priority", &FleetDecisionRow::priority, "1",
     "claimant's priority class (higher preempts lower)"},
    {"gpus_before", &FleetDecisionRow::gpus_before, "gpus",
     "claimant's allocation before the decision"},
    {"gpus_after", &FleetDecisionRow::gpus_after, "gpus",
     "allocation after (the wanted target when denied)"},
    {"pool_free_before", &FleetDecisionRow::pool_free_before, "gpus",
     "unreserved free GPUs in the pool before"},
    {"pool_free_after", &FleetDecisionRow::pool_free_after, "gpus",
     "unreserved free GPUs after"},
    {"fair_share", &FleetDecisionRow::fair_share, "gpus",
     "claimant's weighted max-min fair share at decision time"},
    {"projected_gain_gpu_s", &FleetDecisionRow::projected_gain_gpu_s, "gpu*s",
     "projected fleet-wide GPU-time gain over the payoff window"},
    {"exposed_cost_gpu_s", &FleetDecisionRow::exposed_cost_gpu_s, "gpu*s",
     "exposed cost the fleet-payoff rule weighed (victim restart "
     "stall + its slowdown at the reduced footprint)"},
    {"victim", &FleetDecisionRow::victim, "1",
     "preempted job (preempt rows; empty otherwise)"},
};

constexpr ColumnSpec<FaultEventRow> kFaultEventColumns[] = {
    {"iter", &FaultEventRow::iter, "iteration",
     "iteration the event fired at"},
    {"kind", &FaultEventRow::kind, "1",
     "worker_loss | straggler_onset | straggler_recovery"},
    {"worker", &FaultEventRow::worker, "rank", "victim worker rank"},
    {"multiplier", &FaultEventRow::multiplier, "1",
     "straggler compute-speed multiplier (1.0 = healthy; loss "
     "rows carry 1.0)"},
    {"workers_before", &FaultEventRow::workers_before, "workers",
     "active workers before the event"},
    {"workers_after", &FaultEventRow::workers_after, "workers",
     "active workers after (unchanged for straggler rows)"},
    {"stall_s", &FaultEventRow::stall_s, "s",
     "total recovery charge: restart breakdown plus lost work "
     "(0 for straggler rows)"},
    {"alpha_s", &FaultEventRow::alpha_s, "s",
     "restart breakdown: job-manager round-trip + respawn"},
    {"bootstrap_s", &FaultEventRow::bootstrap_s, "s",
     "restart breakdown: binomial communicator bootstrap"},
    {"ckpt_write_s", &FaultEventRow::ckpt_write_s, "s",
     "restart breakdown: busiest-shard checkpoint write"},
    {"ckpt_read_s", &FaultEventRow::ckpt_read_s, "s",
     "restart breakdown: busiest-shard checkpoint reload"},
    {"lost_work_s", &FaultEventRow::lost_work_s, "s",
     "compute re-done because it post-dated the last checkpoint"},
    {"lost_iters", &FaultEventRow::lost_iters, "iterations",
     "iterations rolled back to the last checkpoint"},
};

/// A table declaration; a column whose field type has no ColumnType
/// fails to compile here.
template <typename Row, std::size_t N>
consteval TableSpec<Row> table(const char* name, const char* description,
                               const ColumnSpec<Row> (&columns)[N]) {
  constexpr auto kLast = static_cast<std::size_t>(ColumnType::ListFloat64);
  for (const auto& column : columns) {
    if (column.field.index() > kLast) throw "field type has no ColumnType";
  }
  return {name, description, columns};
}

constexpr TableSpecs kTables{
    table("iterations", "one row per simulated iteration", kIterationColumns),
    table("stage_loads",
          "one row per (iteration, stage) with per-layer detail",
          kStageLoadColumns),
    table("rebalance_decisions",
          "every rebalance outcome with its accept/reject payoff math",
          kRebalanceDecisionColumns),
    table("migrations", "every executed layer transfer", kMigrationColumns),
    table("elastic_transitions",
          "re-packs and elastic shrink/expand restarts with the "
          "restart-stall breakdown",
          kElasticTransitionColumns),
    table("fleet_decisions",
          "every fleet arbiter admit/grant/deny/release/preempt "
          "verdict with its fleet-payoff pricing",
          kFleetDecisionColumns),
    table("fault_events",
          "every injected fault (worker loss, straggler onset/"
          "recovery) with the recovery stall ledger",
          kFaultEventColumns),
};

constexpr FieldSpec<RunInfo> kRunFields[] = {
    {"producer", &RunInfo::producer},
    // Backend/machine metadata: each on its own catalog line so the
    // golden-trace gate can strip exactly these before byte-comparing
    // catalogs.  They arrived with the transport split, so pre-split
    // traces (and golden catalogs with the lines stripped) lack them.
    {.name = "transport", .field = &RunInfo::transport, .optional = true},
    {.name = "machine", .field = &RunInfo::machine, .optional = true},
    {"iterations", &RunInfo::iterations},
    {"sim_stride", &RunInfo::sim_stride},
    {"rebalance_interval", &RunInfo::rebalance_interval},
    {"pipeline_stages", &RunInfo::pipeline_stages},
    {"data_parallel", &RunInfo::data_parallel},
    {"seed", &RunInfo::seed},
    {"mode", &RunInfo::mode},
    {"algorithm", &RunInfo::algorithm},
    {"balance_by", &RunInfo::balance_by},
    {"mem_capacity", &RunInfo::mem_capacity},
    {"min_bottleneck_gain", &RunInfo::min_bottleneck_gain},
    {"payoff_window_iters", &RunInfo::payoff_window_iters},
    {"migration_cost_multiplier", &RunInfo::migration_cost_multiplier},
    {"migration_exposed_fraction", &RunInfo::migration_exposed_fraction},
    {"gamma", &RunInfo::gamma},
    {"stage_to_rank", &RunInfo::stage_to_rank},
    {"capacities", &RunInfo::capacities},
    {"layer_params", &RunInfo::layer_params},
};

constexpr FieldSpec<TelemetryConfig> kConfigFields[] = {
    {"per_layer", &TelemetryConfig::per_layer},
    {"deterministic", &TelemetryConfig::deterministic},
};

}  // namespace

const TableSpecs& table_specs() { return kTables; }

std::span<const FieldSpec<RunInfo>> run_fields() { return kRunFields; }

std::span<const FieldSpec<TelemetryConfig>> config_fields() {
  return kConfigFields;
}

std::size_t table_index(std::string_view name) {
  std::size_t index = 0;
  std::size_t found = kNumTables;
  for_each_table([&](const auto& table) {
    if (name == table.name) found = index;
    ++index;
  });
  if (found == kNumTables) {
    throw Error("unknown trace table: " + std::string(name));
  }
  return found;
}

}  // namespace dynmo::telemetry
