// Trace table schemas: the discovery half of the catalog+reader split.
//
// A session trace is a directory of columnar JSONL files — one file per
// table, one JSON object per row — plus a catalog.json that enumerates
// every table with its column names, types, and units (modeled on the
// self-describing table functions of SNIPPETS.md §1: discovery first,
// reading second, so tools never guess at layout).  Every row carries the
// schema version under "_v"; readers reject rows from a different version
// instead of silently misinterpreting them.
//
// Each column is declared once, in schema.cpp: a ColumnSpec names it and
// holds a typed member pointer to its row field.  The catalog type is
// derived from that pointer, and the writer, the reader and the catalog
// all walk the same declarations (codec.hpp), so a new column or table is
// one declaration, not four coordinated edits.
//
// The seven tables (docs/TELEMETRY.md has the full column reference):
//   iterations           one row per simulated iteration
//   stage_loads          one row per (iteration, stage), with the
//                        per-layer load/memory arrays replay feeds back
//   rebalance_decisions  every RebalanceOutcome with its payoff math
//   migrations           every planned layer transfer that was executed
//   elastic_transitions  re-packs and elastic shrink/expand restarts,
//                        with the restart-stall breakdown
//   fleet_decisions      every fleet::Arbiter admit/grant/deny/release/
//                        preempt verdict with its fleet-payoff pricing
//                        (empty in single-session traces)
//   fault_events         every injected fault (worker loss, straggler
//                        onset/recovery) with the recovery stall ledger
//                        (docs/FAULT.md; empty in fault-free traces)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace dynmo::telemetry {

/// Bumped whenever a column changes meaning or layout; readers refuse
/// mismatched rows (forward compatibility is explicit, never silent).
inline constexpr int kSchemaVersion = 1;
inline constexpr const char* kTraceFormat = "dynmo-trace";
inline constexpr const char* kCatalogFile = "catalog.json";

enum class ColumnType { Int64, Float64, Bool, String, ListFloat64 };

const char* to_string(ColumnType t);

/// A typed pointer to one field of `Owner`.  The first five alternatives
/// are the column types in ColumnType order, so a column's catalog type
/// is the index of its pointer's alternative and cannot drift from the
/// field's C++ type; the last two occur only in the run metadata.
template <typename Owner>
using FieldPtr =
    std::variant<std::int64_t Owner::*, double Owner::*, bool Owner::*,
                 std::string Owner::*, std::vector<double> Owner::*,
                 std::uint64_t Owner::*, std::vector<int> Owner::*>;

/// One serialized field of `Owner`: a table column, or an entry of the
/// catalog's run metadata (which carries no unit or description).
template <typename Owner>
struct FieldSpec {
  const char* name;
  FieldPtr<Owner> field;
  const char* unit = "1";  ///< "1" for dimensionless quantities
  const char* description = "";
  bool optional = false;  ///< may be absent on read (left at its default)

  ColumnType type() const { return static_cast<ColumnType>(field.index()); }
};

template <typename Row>
using ColumnSpec = FieldSpec<Row>;

template <typename Row>
struct TableSpec {
  const char* name;
  const char* description;
  std::span<const ColumnSpec<Row>> columns;

  /// The table's JSONL file, relative to the trace directory.
  std::string file() const { return std::string(name) + ".jsonl"; }
};

// ---------------------------------------------------------------- rows

struct IterationRow {
  std::int64_t iter = 0;
  double time_s = 0.0;        ///< pipeline + exposed DP time, one iteration
  double event_s = 0.0;       ///< one-off event time charged at this point
  double bottleneck_s = 0.0;  ///< max per-stage sum of layer fwd+bwd seconds
  double idleness = 0.0;
  double bubble_ratio = 0.0;
  std::int64_t active_workers = 0;
  double compute_fraction = 1.0;
  bool rebalanced = false;    ///< a rebalance point fired at this iteration
  double stall_s = 0.0;       ///< restart stall charged at this iteration

  bool operator==(const IterationRow&) const = default;
};

struct StageLoadRow {
  std::int64_t iter = 0;
  std::int64_t stage = 0;
  std::int64_t rank = 0;  ///< global rank hosting the stage (dp=0 view)
  std::int64_t layer_begin = 0;
  std::int64_t layer_end = 0;
  double load_s = 0.0;     ///< sum of the stage's per-layer fwd+bwd seconds
  double mem_bytes = 0.0;  ///< sum of the stage's per-layer resident bytes
  /// Per-layer detail (layers [layer_begin, layer_end)); concatenated over
  /// the stages of one iteration these reconstruct the exact per-layer
  /// profile the balancers saw — what balance::ReplayedLoads feeds back.
  /// Empty when TelemetryConfig::per_layer is off.
  std::vector<double> layer_s;
  std::vector<double> layer_mem;

  bool operator==(const StageLoadRow&) const = default;
};

struct RebalanceDecisionRow {
  std::int64_t iter = 0;
  std::string trigger;     ///< periodic | post_pack | post_restart
  std::string algorithm;   ///< balance::to_string(Algorithm)
  std::string balance_by;  ///< balance::to_string(BalanceBy)
  std::string decision;    ///< balance::to_string(MapDecision)
  double projected_gain_s = 0.0;
  double exposed_cost_s = 0.0;
  double candidate_bytes = 0.0;
  double migrated_bytes = 0.0;
  std::int64_t migrated_layers = 0;
  double imbalance_before = 0.0;
  double imbalance_after = 0.0;
  double decide_s = 0.0;  ///< measured decision wall-clock (machine-dep.)

  bool operator==(const RebalanceDecisionRow&) const = default;
};

struct MigrationRow {
  std::int64_t iter = 0;
  std::string trigger;  ///< periodic | post_pack | post_restart | repack | phase
  std::int64_t layer = 0;
  std::int64_t from_stage = 0;
  std::int64_t to_stage = 0;
  double bytes = 0.0;

  bool operator==(const MigrationRow&) const = default;
};

struct ElasticTransitionRow {
  std::int64_t iter = 0;
  std::string kind;  ///< repack | shrink | expand | preempt
  bool accepted = false;  ///< false → wanted but rejected by the payoff gate
  std::int64_t workers_before = 0;
  std::int64_t workers_after = 0;
  /// Stall breakdown (docs/COST_MODEL.md "Restart-stall pricing"); repack
  /// rows charge the migration wall-clock as stall_s with a zero breakdown.
  double stall_s = 0.0;
  double alpha_s = 0.0;
  double bootstrap_s = 0.0;
  double ckpt_write_s = 0.0;
  double ckpt_read_s = 0.0;
  double projected_gain_s = 0.0;
  double migrated_bytes = 0.0;  ///< repack transfers; restarts move none

  bool operator==(const ElasticTransitionRow&) const = default;
};

/// One injected fault event (docs/FAULT.md): what the fault::Injector
/// fired and — for worker losses — what the checkpoint-coordinated
/// recovery cost.  stall_s is the *total* charge (restart breakdown plus
/// the work lost since the last checkpoint), so summing stall_s across
/// accepted elastic_transitions and fault_events reconstructs
/// SessionResult::restart_stall_s exactly (the ledger-consistency test
/// holds the session to this).
struct FaultEventRow {
  std::int64_t iter = 0;
  std::string kind;  ///< worker_loss | straggler_onset | straggler_recovery
  std::int64_t worker = 0;    ///< victim rank
  double multiplier = 1.0;    ///< straggler speed multiplier (1.0 = healthy)
  std::int64_t workers_before = 0;
  std::int64_t workers_after = 0;
  /// Total stall charged: alpha + bootstrap + ckpt write/read + lost work.
  double stall_s = 0.0;
  double alpha_s = 0.0;
  double bootstrap_s = 0.0;
  double ckpt_write_s = 0.0;
  double ckpt_read_s = 0.0;
  /// Compute re-done because it post-dated the last checkpoint.
  double lost_work_s = 0.0;
  std::int64_t lost_iters = 0;  ///< iterations rolled back to the checkpoint

  bool operator==(const FaultEventRow&) const = default;
};

/// One fleet::Arbiter verdict (docs/FLEET.md): who asked for GPUs, what
/// the arbiter decided, and the fleet-payoff pricing behind it.  Written
/// by the arbiter's own TraceWriter, so `time_s` is the fleet clock, not
/// an iteration index.
struct FleetDecisionRow {
  double time_s = 0.0;   ///< fleet clock when the decision fired
  std::string job;       ///< pod name of the claimant
  /// admit (baseline claim at arrival) | grant / deny (expand PATCH) |
  /// release (shrink PATCH) | preempt (forced shrink of a victim) |
  /// finish (job completed, allocation returned).
  std::string kind;
  bool accepted = false;
  std::int64_t priority = 0;    ///< claimant's priority class
  std::int64_t gpus_before = 0;  ///< claimant's allocation before
  std::int64_t gpus_after = 0;   ///< after (the wanted target when denied)
  std::int64_t pool_free_before = 0;  ///< unreserved free GPUs before
  std::int64_t pool_free_after = 0;
  /// Claimant's weighted max-min fair share at decision time.
  double fair_share = 0.0;
  /// Fleet-payoff pricing (GPU-seconds over the payoff window): projected
  /// fleet-wide gpu_hours_saved gain vs. the exposed cost (victim restart
  /// stall + its slowdown at the reduced footprint).  0/0 for unpriced
  /// kinds (admit from free capacity, release, finish).
  double projected_gain_gpu_s = 0.0;
  double exposed_cost_gpu_s = 0.0;
  std::string victim;  ///< preempted job (preempt rows; empty otherwise)

  bool operator==(const FleetDecisionRow&) const = default;
};

/// Run-level metadata recorded in catalog.json: everything offline replay
/// needs to reconstruct the balancer configuration the session resolved
/// (docs/TELEMETRY.md "Replay").
struct RunInfo {
  std::string producer;  ///< "session" | "threaded" | "fleet"
  /// comm backend that carried the run's messages ("inproc" | "socket");
  /// empty for modeled producers that never open a comm::World.  Stripped
  /// (with `machine`) by the golden-trace gate's catalog compare — it is
  /// backend metadata, not trace content.
  std::string transport;
  /// Hostname the trace was recorded on; filled by TraceWriter when left
  /// empty.  Machine metadata, stripped by the golden-trace compare.
  std::string machine;
  std::int64_t iterations = 0;
  std::int64_t sim_stride = 1;
  std::int64_t rebalance_interval = 0;
  std::int64_t pipeline_stages = 0;
  std::int64_t data_parallel = 1;
  std::uint64_t seed = 0;
  std::string mode;
  std::string algorithm;
  std::string balance_by;
  double mem_capacity = 0.0;
  double min_bottleneck_gain = 0.0;
  double payoff_window_iters = 0.0;
  double migration_cost_multiplier = 1.0;
  double migration_exposed_fraction = 1.0;
  double gamma = 0.0;
  std::vector<int> stage_to_rank;    ///< empty → stage s is rank s
  std::vector<double> capacities;    ///< empty → uniform
  std::vector<double> layer_params;  ///< static per-layer parameter counts

  bool operator==(const RunInfo&) const = default;
};

/// Telemetry knob embedded in runtime configs: disabled (and zero-cost)
/// unless a trace directory is set.
struct TelemetryConfig {
  /// Trace output directory; created (parents included) on first use,
  /// existing table files truncated.  Empty → telemetry fully disabled.
  std::string dir;
  /// Record the per-layer arrays in stage_loads (required for replay;
  /// turn off to shrink traces when only stage totals are wanted).
  bool per_layer = true;
  /// Zero the *measured* wall-clock columns at the producer (session
  /// decide_s; threaded time_s / stall_s) so two runs of the same scenario
  /// emit byte-identical tables on any machine and any backend.  Modeled
  /// times are untouched — they are deterministic already.  This is what
  /// the golden-trace CI gate records with (docs/TRANSPORT.md).
  bool deterministic = false;

  bool enabled() const { return !dir.empty(); }
};

// -------------------------------------------------------------- tables

/// Every table a trace may contain, in catalog order: one per row type.
using TableSpecs =
    std::tuple<TableSpec<IterationRow>, TableSpec<StageLoadRow>,
               TableSpec<RebalanceDecisionRow>, TableSpec<MigrationRow>,
               TableSpec<ElasticTransitionRow>, TableSpec<FleetDecisionRow>,
               TableSpec<FaultEventRow>>;
inline constexpr std::size_t kNumTables = std::tuple_size_v<TableSpecs>;

/// The declarations (schema.cpp).
const TableSpecs& table_specs();
/// The catalog's "run" object: RunInfo's fields, then the TelemetryConfig
/// switches that shaped the trace (written only).
std::span<const FieldSpec<RunInfo>> run_fields();
std::span<const FieldSpec<TelemetryConfig>> config_fields();

template <typename Row>
const TableSpec<Row>& table_spec() {
  return std::get<TableSpec<Row>>(table_specs());
}

/// Catalog position of `Row`'s table, resolved at compile time.
template <typename Row>
inline constexpr std::size_t kTableIndex =
    []<std::size_t... I>(std::index_sequence<I...>) {
      std::size_t index = kNumTables;
      ((std::is_same_v<std::tuple_element_t<I, TableSpecs>, TableSpec<Row>>
            ? (index = I)
            : 0),
       ...);
      return index;
    }(std::make_index_sequence<kNumTables>{});

/// Calls `fn(table_spec)` for every table, in catalog order.
template <typename Fn>
void for_each_table(Fn&& fn) {
  std::apply([&](const auto&... table) { (fn(table), ...); }, table_specs());
}

/// Catalog position of the table called `name`; throws dynmo::Error for
/// an unknown table.
std::size_t table_index(std::string_view name);

}  // namespace dynmo::telemetry
