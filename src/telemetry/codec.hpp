// The trace's row codec: one loop encodes any table row into its JSONL
// line and one loop decodes any JSON object back into its struct, both
// walking the field declarations in schema.cpp (table columns and the
// catalog's run metadata alike).  A field costs one std::visit over its
// member-pointer variant: no allocation, no virtual call.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/error.hpp"
#include "telemetry/json.hpp"
#include "telemetry/schema.hpp"

namespace dynmo::telemetry {

// ---------------------------------------------------------------- values

inline void append_value(std::string& out, std::int64_t v) {
  out += std::to_string(v);
}
inline void append_value(std::string& out, int v) { out += std::to_string(v); }
/// JSON integers are signed: a uint64 (the seed) travels as its int64 bit
/// pattern.
inline void append_value(std::string& out, std::uint64_t v) {
  out += std::to_string(static_cast<std::int64_t>(v));
}
inline void append_value(std::string& out, double v) {
  out += format_double(v);
}
inline void append_value(std::string& out, bool v) {
  out += v ? "true" : "false";
}
inline void append_value(std::string& out, const std::string& v) {
  append_json_string(out, v);
}
template <typename T>
void append_value(std::string& out, const std::vector<T>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    append_value(out, v[i]);
  }
  out += ']';
}

inline void read_value(const JsonValue& v, std::int64_t& out) {
  out = v.as_int();
}
inline void read_value(const JsonValue& v, int& out) {
  out = static_cast<int>(v.as_int());
}
inline void read_value(const JsonValue& v, std::uint64_t& out) {
  out = static_cast<std::uint64_t>(v.as_int());
}
inline void read_value(const JsonValue& v, double& out) {
  out = v.as_double();
}
inline void read_value(const JsonValue& v, bool& out) { out = v.as_bool(); }
inline void read_value(const JsonValue& v, std::string& out) {
  out = v.as_string();
}
template <typename T>
void read_value(const JsonValue& v, std::vector<T>& out) {
  const std::vector<JsonValue>& array = v.as_array();
  out.resize(array.size());
  for (std::size_t i = 0; i < out.size(); ++i) read_value(array[i], out[i]);
}

// ---------------------------------------------------------------- fields

template <typename Owner>
void append_field(std::string& out, const Owner& owner,
                  const FieldPtr<Owner>& field) {
  std::visit([&](auto member) { append_value(out, owner.*member); }, field);
}

/// One JSONL line: {"_v":<schema version>,<columns in declaration order>}.
template <typename Row>
std::string encode_row(const Row& row) {
  std::string line = "{\"_v\":" + std::to_string(kSchemaVersion);
  for (const ColumnSpec<Row>& column : table_spec<Row>().columns) {
    line += ",\"";
    line += column.name;
    line += "\":";
    append_field(line, row, column.field);
  }
  line += "}\n";
  return line;
}

/// Fills `owner` from the members of `obj` that `fields` name.  A missing
/// (non-optional) member or a value of the wrong JSON kind throws
/// dynmo::Error naming the field.
template <typename Owner>
void decode_fields(const JsonValue& obj,
                   std::span<const FieldSpec<Owner>> fields, Owner& owner) {
  const char* name = "";
  try {
    for (const FieldSpec<Owner>& f : fields) {
      name = f.name;
      const JsonValue* v = obj.find(f.name);
      if (v == nullptr) {
        if (f.optional) continue;
        throw Error("missing");
      }
      std::visit([&](auto member) { read_value(*v, owner.*member); },
                 f.field);
    }
  } catch (const Error& e) {
    throw Error(std::string("field '") + name + "': " + e.what());
  }
}

}  // namespace dynmo::telemetry
