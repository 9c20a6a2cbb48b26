#include "telemetry/trace_writer.hpp"

#include <unistd.h>

#include <filesystem>

#include "core/error.hpp"
#include "telemetry/json.hpp"

namespace dynmo::telemetry {

TraceWriter::TraceWriter(TelemetryConfig cfg, RunInfo run)
    : cfg_(std::move(cfg)), run_(std::move(run)) {
  DYNMO_CHECK(cfg_.enabled(), "TraceWriter needs a trace directory");
  if (run_.machine.empty()) {
    char host[256] = {};
    if (::gethostname(host, sizeof host - 1) == 0) run_.machine = host;
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg_.dir, ec);
  DYNMO_CHECK(!ec, "cannot create trace directory " << cfg_.dir << ": "
                                                    << ec.message());
  std::size_t i = 0;
  for_each_table([&](const auto& table) {
    const std::string path = cfg_.dir + "/" + table.file();
    Table& t = tables_[i++];
    t.file = std::fopen(path.c_str(), "w");
    DYNMO_CHECK(t.file != nullptr, "cannot open trace table " << path);
  });
}

TraceWriter::~TraceWriter() {
  try {
    finalize();
  } catch (const Error&) {
    // Destructors must not throw; a failed catalog write leaves the table
    // files behind, which is the best a dying process can do.
  }
  for (auto& t : tables_) {
    if (t.file != nullptr) {
      std::fclose(t.file);
      t.file = nullptr;
    }
  }
}

void TraceWriter::append_row(std::size_t table, const std::string& line) {
  std::scoped_lock lock(mu_);
  Table& t = tables_[table];
  DYNMO_CHECK(t.file != nullptr, "trace table already finalized");
  std::fwrite(line.data(), 1, line.size(), t.file);
  ++t.rows;
  finalized_ = false;
}

std::int64_t TraceWriter::rows_written(std::string_view name) const {
  std::scoped_lock lock(mu_);
  return tables_[table_index(name)].rows;
}

void TraceWriter::write_catalog() {
  std::string out = "{\n";
  out += "  \"format\": \"";
  out += kTraceFormat;
  out += "\",\n  \"schema_version\": " + std::to_string(kSchemaVersion) +
         ",\n";

  // One field per line (the golden-trace gate strips the machine-dependent
  // ones line by line).
  out += "  \"run\": {\n";
  const auto append_fields = [&out](const auto& owner, const auto& fields) {
    for (const auto& f : fields) {
      out += "    \"";
      out += f.name;
      out += "\": ";
      append_field(out, owner, f.field);
      out += ",\n";
    }
  };
  append_fields(run_, run_fields());
  append_fields(cfg_, config_fields());
  out.resize(out.size() - 2);  // the last field takes no comma
  out += "\n  },\n";

  out += "  \"tables\": [\n";
  std::size_t i = 0;
  for_each_table([&](const auto& table) {
    out += "    {\"name\": \"";
    out += table.name;
    out += "\", \"file\": \"";
    out += table.file();
    out += "\", \"rows\": " + std::to_string(tables_[i].rows) +
           ",\n     \"description\": ";
    append_json_string(out, table.description);
    out += ",\n     \"columns\": [\n";
    for (std::size_t c = 0; c < table.columns.size(); ++c) {
      const auto& col = table.columns[c];
      out += "       {\"name\": \"";
      out += col.name;
      out += "\", \"type\": \"";
      out += to_string(col.type());
      out += "\", \"unit\": \"";
      out += col.unit;
      out += "\", \"description\": ";
      append_json_string(out, col.description);
      out += c + 1 < table.columns.size() ? "},\n" : "}\n";
    }
    out += "     ]}";
    out += ++i < kNumTables ? ",\n" : "\n";
  });
  out += "  ]\n}\n";

  const std::string path = cfg_.dir + "/" + kCatalogFile;
  std::FILE* f = std::fopen(path.c_str(), "w");
  DYNMO_CHECK(f != nullptr, "cannot write trace catalog " << path);
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
}

void TraceWriter::finalize() {
  std::scoped_lock lock(mu_);
  if (finalized_) return;
  for (auto& t : tables_) {
    if (t.file != nullptr) std::fflush(t.file);
  }
  write_catalog();
  finalized_ = true;
}

}  // namespace dynmo::telemetry
