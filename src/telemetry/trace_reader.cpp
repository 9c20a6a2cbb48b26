#include "telemetry/trace_reader.hpp"

#include <fstream>
#include <initializer_list>
#include <sstream>

#include "core/error.hpp"
#include "telemetry/json.hpp"

namespace dynmo::telemetry {

namespace {

/// Parse one JSONL table: checks the per-row "_v" schema tag, then hands
/// each row object to `consume`.
template <typename Fn>
void for_each_row(const std::string& text, const std::string& context,
                  Fn&& consume) {
  std::istringstream in(text);
  std::string line;
  std::int64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue row;
    try {
      row = JsonValue::parse(line);
    } catch (const Error& e) {
      throw Error(context + ":" + std::to_string(lineno) + ": " + e.what());
    }
    DYNMO_CHECK(row.kind == JsonValue::Kind::Object,
                context << ":" << lineno << ": row is not an object");
    const JsonValue* v = row.find("_v");
    DYNMO_CHECK(v != nullptr && v->as_int() == kSchemaVersion,
                context << ":" << lineno << ": row schema version "
                        << (v != nullptr ? std::to_string(v->as_int())
                                         : std::string("<missing>"))
                        << " != library version " << kSchemaVersion);
    consume(row);
  }
}

const JsonValue& member(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  DYNMO_CHECK(v != nullptr, "missing member '" << key << "'");
  return *v;
}

std::vector<double> double_list(const JsonValue& v) {
  DYNMO_CHECK(v.kind == JsonValue::Kind::Array,
              "expected array, got " << v.kind_name());
  std::vector<double> out;
  out.reserve(v.array.size());
  for (const auto& e : v.array) out.push_back(e.as_double());
  return out;
}

std::vector<int> int_list(const JsonValue& v) {
  DYNMO_CHECK(v.kind == JsonValue::Kind::Array,
              "expected array, got " << v.kind_name());
  std::vector<int> out;
  out.reserve(v.array.size());
  for (const auto& e : v.array) out.push_back(static_cast<int>(e.as_int()));
  return out;
}

/// The option whose to_string() is `value`.  An unknown name (a corrupted
/// or newer trace) throws rather than replaying as some other option,
/// which would answer a what-if silently wrong.
template <typename Enum>
Enum parse_run_field(const std::string& dir, const char* field,
                     const std::string& value,
                     std::initializer_list<Enum> options) {
  std::string known;
  for (const Enum option : options) {
    if (value == to_string(option)) return option;
    known += known.empty() ? "" : "|";
    known += to_string(option);
  }
  throw Error(dir + "/catalog.json: run." + field + " '" + value +
              "' is not one of " + known);
}

}  // namespace

TraceReader::TraceReader(std::string dir) : dir_(std::move(dir)) {
  const JsonValue doc = JsonValue::parse(read_file(kCatalogFile));
  DYNMO_CHECK(doc.kind == JsonValue::Kind::Object, "catalog is not a JSON "
                                                   "object");
  catalog_.format = member(doc, "format").as_string();
  DYNMO_CHECK(catalog_.format == kTraceFormat,
              "not a dynmo trace (format '" << catalog_.format << "')");
  catalog_.schema_version =
      static_cast<int>(member(doc, "schema_version").as_int());
  DYNMO_CHECK(catalog_.schema_version == kSchemaVersion,
              "trace schema version " << catalog_.schema_version
                                      << " != library version "
                                      << kSchemaVersion);

  const JsonValue& run = member(doc, "run");
  RunInfo& r = catalog_.run;
  r.producer = member(run, "producer").as_string();
  // Backend/machine metadata arrived with the transport split; parse
  // tolerantly so pre-split traces (and golden catalogs with the lines
  // stripped) still load.
  if (const JsonValue* t = run.find("transport")) r.transport = t->as_string();
  if (const JsonValue* m = run.find("machine")) r.machine = m->as_string();
  r.iterations = member(run, "iterations").as_int();
  r.sim_stride = member(run, "sim_stride").as_int();
  r.rebalance_interval = member(run, "rebalance_interval").as_int();
  r.pipeline_stages = member(run, "pipeline_stages").as_int();
  r.data_parallel = member(run, "data_parallel").as_int();
  r.seed = static_cast<std::uint64_t>(member(run, "seed").as_int());
  r.mode = member(run, "mode").as_string();
  r.algorithm = member(run, "algorithm").as_string();
  r.balance_by = member(run, "balance_by").as_string();
  r.mem_capacity = member(run, "mem_capacity").as_double();
  r.min_bottleneck_gain = member(run, "min_bottleneck_gain").as_double();
  r.payoff_window_iters = member(run, "payoff_window_iters").as_double();
  r.migration_cost_multiplier =
      member(run, "migration_cost_multiplier").as_double();
  r.migration_exposed_fraction =
      member(run, "migration_exposed_fraction").as_double();
  r.gamma = member(run, "gamma").as_double();
  r.stage_to_rank = int_list(member(run, "stage_to_rank"));
  r.capacities = double_list(member(run, "capacities"));
  r.layer_params = double_list(member(run, "layer_params"));

  const JsonValue& tables = member(doc, "tables");
  DYNMO_CHECK(tables.kind == JsonValue::Kind::Array,
              "catalog 'tables' is not an array");
  for (const auto& t : tables.array) {
    CatalogTable ct;
    ct.name = member(t, "name").as_string();
    ct.file = member(t, "file").as_string();
    ct.rows = member(t, "rows").as_int();
    table_spec(ct.name);  // unknown tables fail loudly
    catalog_.tables.push_back(std::move(ct));
  }
}

std::string TraceReader::read_file(const std::string& name) const {
  const std::string path = dir_ + "/" + name;
  std::ifstream in(path, std::ios::binary);
  DYNMO_CHECK(in.good(), "cannot open trace file " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

std::vector<IterationRow> TraceReader::iterations() const {
  std::vector<IterationRow> rows;
  for_each_row(read_file(table_spec("iterations").file), "iterations",
               [&](const JsonValue& v) {
                 IterationRow r;
                 r.iter = member(v, "iter").as_int();
                 r.time_s = member(v, "time_s").as_double();
                 r.event_s = member(v, "event_s").as_double();
                 r.bottleneck_s = member(v, "bottleneck_s").as_double();
                 r.idleness = member(v, "idleness").as_double();
                 r.bubble_ratio = member(v, "bubble_ratio").as_double();
                 r.active_workers = member(v, "active_workers").as_int();
                 r.compute_fraction =
                     member(v, "compute_fraction").as_double();
                 r.rebalanced = member(v, "rebalanced").as_bool();
                 r.stall_s = member(v, "stall_s").as_double();
                 rows.push_back(std::move(r));
               });
  return rows;
}

std::vector<StageLoadRow> TraceReader::stage_loads() const {
  std::vector<StageLoadRow> rows;
  for_each_row(read_file(table_spec("stage_loads").file), "stage_loads",
               [&](const JsonValue& v) {
                 StageLoadRow r;
                 r.iter = member(v, "iter").as_int();
                 r.stage = member(v, "stage").as_int();
                 r.rank = member(v, "rank").as_int();
                 r.layer_begin = member(v, "layer_begin").as_int();
                 r.layer_end = member(v, "layer_end").as_int();
                 r.load_s = member(v, "load_s").as_double();
                 r.mem_bytes = member(v, "mem_bytes").as_double();
                 r.layer_s = double_list(member(v, "layer_s"));
                 r.layer_mem = double_list(member(v, "layer_mem"));
                 rows.push_back(std::move(r));
               });
  return rows;
}

std::vector<RebalanceDecisionRow> TraceReader::rebalance_decisions() const {
  std::vector<RebalanceDecisionRow> rows;
  for_each_row(
      read_file(table_spec("rebalance_decisions").file),
      "rebalance_decisions", [&](const JsonValue& v) {
        RebalanceDecisionRow r;
        r.iter = member(v, "iter").as_int();
        r.trigger = member(v, "trigger").as_string();
        r.algorithm = member(v, "algorithm").as_string();
        r.balance_by = member(v, "balance_by").as_string();
        r.decision = member(v, "decision").as_string();
        r.projected_gain_s = member(v, "projected_gain_s").as_double();
        r.exposed_cost_s = member(v, "exposed_cost_s").as_double();
        r.candidate_bytes = member(v, "candidate_bytes").as_double();
        r.migrated_bytes = member(v, "migrated_bytes").as_double();
        r.migrated_layers = member(v, "migrated_layers").as_int();
        r.imbalance_before = member(v, "imbalance_before").as_double();
        r.imbalance_after = member(v, "imbalance_after").as_double();
        r.decide_s = member(v, "decide_s").as_double();
        rows.push_back(std::move(r));
      });
  return rows;
}

std::vector<MigrationRow> TraceReader::migrations() const {
  std::vector<MigrationRow> rows;
  for_each_row(read_file(table_spec("migrations").file), "migrations",
               [&](const JsonValue& v) {
                 MigrationRow r;
                 r.iter = member(v, "iter").as_int();
                 r.trigger = member(v, "trigger").as_string();
                 r.layer = member(v, "layer").as_int();
                 r.from_stage = member(v, "from_stage").as_int();
                 r.to_stage = member(v, "to_stage").as_int();
                 r.bytes = member(v, "bytes").as_double();
                 rows.push_back(std::move(r));
               });
  return rows;
}

std::vector<ElasticTransitionRow> TraceReader::elastic_transitions() const {
  std::vector<ElasticTransitionRow> rows;
  for_each_row(
      read_file(table_spec("elastic_transitions").file),
      "elastic_transitions", [&](const JsonValue& v) {
        ElasticTransitionRow r;
        r.iter = member(v, "iter").as_int();
        r.kind = member(v, "kind").as_string();
        r.accepted = member(v, "accepted").as_bool();
        r.workers_before = member(v, "workers_before").as_int();
        r.workers_after = member(v, "workers_after").as_int();
        r.stall_s = member(v, "stall_s").as_double();
        r.alpha_s = member(v, "alpha_s").as_double();
        r.bootstrap_s = member(v, "bootstrap_s").as_double();
        r.ckpt_write_s = member(v, "ckpt_write_s").as_double();
        r.ckpt_read_s = member(v, "ckpt_read_s").as_double();
        r.projected_gain_s = member(v, "projected_gain_s").as_double();
        r.migrated_bytes = member(v, "migrated_bytes").as_double();
        rows.push_back(std::move(r));
      });
  return rows;
}

std::vector<FleetDecisionRow> TraceReader::fleet_decisions() const {
  std::vector<FleetDecisionRow> rows;
  for_each_row(
      read_file(table_spec("fleet_decisions").file),
      "fleet_decisions", [&](const JsonValue& v) {
        FleetDecisionRow r;
        r.time_s = member(v, "time_s").as_double();
        r.job = member(v, "job").as_string();
        r.kind = member(v, "kind").as_string();
        r.accepted = member(v, "accepted").as_bool();
        r.priority = member(v, "priority").as_int();
        r.gpus_before = member(v, "gpus_before").as_int();
        r.gpus_after = member(v, "gpus_after").as_int();
        r.pool_free_before = member(v, "pool_free_before").as_int();
        r.pool_free_after = member(v, "pool_free_after").as_int();
        r.fair_share = member(v, "fair_share").as_double();
        r.projected_gain_gpu_s =
            member(v, "projected_gain_gpu_s").as_double();
        r.exposed_cost_gpu_s = member(v, "exposed_cost_gpu_s").as_double();
        r.victim = member(v, "victim").as_string();
        rows.push_back(std::move(r));
      });
  return rows;
}

std::vector<FaultEventRow> TraceReader::fault_events() const {
  std::vector<FaultEventRow> rows;
  for_each_row(
      read_file(table_spec("fault_events").file), "fault_events",
      [&](const JsonValue& v) {
        FaultEventRow r;
        r.iter = member(v, "iter").as_int();
        r.kind = member(v, "kind").as_string();
        r.worker = member(v, "worker").as_int();
        r.multiplier = member(v, "multiplier").as_double();
        r.workers_before = member(v, "workers_before").as_int();
        r.workers_after = member(v, "workers_after").as_int();
        r.stall_s = member(v, "stall_s").as_double();
        r.alpha_s = member(v, "alpha_s").as_double();
        r.bootstrap_s = member(v, "bootstrap_s").as_double();
        r.ckpt_write_s = member(v, "ckpt_write_s").as_double();
        r.ckpt_read_s = member(v, "ckpt_read_s").as_double();
        r.lost_work_s = member(v, "lost_work_s").as_double();
        r.lost_iters = member(v, "lost_iters").as_int();
        rows.push_back(std::move(r));
      });
  return rows;
}

balance::ReplayedLoads TraceReader::replayed_loads() const {
  const auto rows = stage_loads();
  DYNMO_CHECK(!rows.empty(), "trace has no stage_loads rows");

  balance::ReplayedLoads loads;
  loads.num_stages = static_cast<int>(catalog_.run.pipeline_stages);

  balance::ReplayedLoads::Frame frame;
  frame.iter = rows.front().iter;
  for (const auto& r : rows) {
    if (r.iter != frame.iter) {
      loads.frames.push_back(std::move(frame));
      frame = {};
      frame.iter = r.iter;
    }
    DYNMO_CHECK(!r.layer_s.empty() ||
                    r.layer_begin == r.layer_end,
                "stage_loads row (iter " << r.iter << ", stage " << r.stage
                                         << ") has no per-layer arrays — "
                                            "trace recorded with per_layer "
                                            "off; replay needs them");
    DYNMO_CHECK(static_cast<std::int64_t>(frame.layer_time_s.size()) ==
                    r.layer_begin,
                "stage_loads rows out of order at iter " << r.iter);
    frame.layer_time_s.insert(frame.layer_time_s.end(), r.layer_s.begin(),
                              r.layer_s.end());
    frame.layer_memory_bytes.insert(frame.layer_memory_bytes.end(),
                                    r.layer_mem.begin(), r.layer_mem.end());
  }
  loads.frames.push_back(std::move(frame));
  return loads;
}

balance::ReplayConfig TraceReader::replay_config() const {
  const RunInfo& r = catalog_.run;
  balance::ReplayConfig cfg;
  cfg.rebalance_interval = r.rebalance_interval;
  cfg.seed = r.seed;
  cfg.params = r.layer_params;

  balance::RebalanceConfig& rb = cfg.rebalance;
  rb.algorithm = parse_run_field(dir_, "algorithm", r.algorithm,
                                 {balance::Algorithm::Partition,
                                  balance::Algorithm::Diffusion,
                                  balance::Algorithm::HierarchicalDiffusion});
  rb.by = parse_run_field(dir_, "balance_by", r.balance_by,
                          {balance::BalanceBy::Time,
                           balance::BalanceBy::Param});
  rb.mem_capacity = r.mem_capacity;
  rb.gamma = r.gamma;
  rb.min_bottleneck_gain = r.min_bottleneck_gain;
  rb.payoff_window_iters = r.payoff_window_iters;
  rb.migration_cost_multiplier = r.migration_cost_multiplier;
  rb.migration_exposed_fraction = r.migration_exposed_fraction;
  rb.stage_to_rank = r.stage_to_rank;
  rb.capacities = r.capacities;
  return cfg;
}

}  // namespace dynmo::telemetry
