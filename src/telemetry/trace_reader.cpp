#include "telemetry/trace_reader.hpp"

#include <fstream>
#include <initializer_list>
#include <sstream>

#include "core/error.hpp"
#include "telemetry/codec.hpp"
#include "telemetry/json.hpp"

namespace dynmo::telemetry {

namespace {

/// Parse one JSONL table: checks each row's "_v" schema tag, then hands
/// the row object to `consume`.  Any error names the table and line.
template <typename Fn>
void for_each_row(const std::string& text, const char* table, Fn&& consume) {
  std::istringstream in(text);
  std::string line;
  std::int64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    try {
      const JsonValue row = JsonValue::parse(line);
      if (row.kind != JsonValue::Kind::Object) {
        throw Error("row is not an object");
      }
      const JsonValue* v = row.find("_v");
      if (v == nullptr || v->as_int() != kSchemaVersion) {
        throw Error("row schema version " +
                    (v != nullptr ? std::to_string(v->as_int())
                                  : std::string("<missing>")) +
                    " != library version " + std::to_string(kSchemaVersion));
      }
      consume(row);
    } catch (const Error& e) {
      throw Error(std::string(table) + ":" + std::to_string(lineno) + ": " +
                  e.what());
    }
  }
}

const JsonValue& member(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  DYNMO_CHECK(v != nullptr, "missing member '" << key << "'");
  return *v;
}

/// The option whose to_string() is `run.*field`.  An unknown name (a
/// corrupted or newer trace) throws rather than replaying as some other
/// option, which would answer a what-if silently wrong.
template <typename Enum>
Enum parse_run_field(const std::string& dir, const RunInfo& run,
                     std::string RunInfo::*field,
                     std::initializer_list<Enum> options) {
  const std::string& value = run.*field;
  std::string known;
  for (const Enum option : options) {
    if (value == to_string(option)) return option;
    known += known.empty() ? "" : "|";
    known += to_string(option);
  }
  std::string name;
  for (const auto& f : run_fields()) {
    if (f.field == FieldPtr<RunInfo>(field)) name = f.name;
  }
  throw Error(dir + "/catalog.json: run." + name + " '" + value +
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

  try {
    decode_fields(member(doc, "run"), run_fields(), catalog_.run);
  } catch (const Error& e) {
    throw Error(dir_ + "/catalog.json: run: " + e.what());
  }

  const JsonValue& tables = member(doc, "tables");
  DYNMO_CHECK(tables.kind == JsonValue::Kind::Array,
              "catalog 'tables' is not an array");
  for (const auto& t : tables.array) {
    CatalogTable ct;
    ct.name = member(t, "name").as_string();
    ct.file = member(t, "file").as_string();
    ct.rows = member(t, "rows").as_int();
    table_index(ct.name);  // unknown tables fail loudly
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

template <typename Row>
std::vector<Row> TraceReader::rows() const {
  const TableSpec<Row>& table = table_spec<Row>();
  std::vector<Row> rows;
  for_each_row(read_file(table.file()), table.name, [&](const JsonValue& v) {
    decode_fields(v, table.columns, rows.emplace_back());
  });
  return rows;
}

std::vector<IterationRow> TraceReader::iterations() const {
  return rows<IterationRow>();
}
std::vector<StageLoadRow> TraceReader::stage_loads() const {
  return rows<StageLoadRow>();
}
std::vector<RebalanceDecisionRow> TraceReader::rebalance_decisions() const {
  return rows<RebalanceDecisionRow>();
}
std::vector<MigrationRow> TraceReader::migrations() const {
  return rows<MigrationRow>();
}
std::vector<ElasticTransitionRow> TraceReader::elastic_transitions() const {
  return rows<ElasticTransitionRow>();
}
std::vector<FleetDecisionRow> TraceReader::fleet_decisions() const {
  return rows<FleetDecisionRow>();
}
std::vector<FaultEventRow> TraceReader::fault_events() const {
  return rows<FaultEventRow>();
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
  rb.algorithm = parse_run_field(dir_, r, &RunInfo::algorithm,
                                 {balance::Algorithm::Partition,
                                  balance::Algorithm::Diffusion,
                                  balance::Algorithm::HierarchicalDiffusion});
  rb.by = parse_run_field(dir_, r, &RunInfo::balance_by,
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
