#include "query/snapshot.hpp"

#include <charconv>
#include <concepts>
#include <cmath>
#include <cstdio>
#include <tuple>
#include <type_traits>

#include "query/json.hpp"
#include "query/tables.hpp"
#include "storm/cluster.hpp"
#include "telemetry/metrics.hpp"

namespace storm::query {
namespace {

/// One state table: its schema and where its rows live in a
/// StateSnapshot and in a TableSet.
template <typename S, typename Row>
struct Table {
  S schema;
  std::vector<Row> StateSnapshot::*rows;
  Relation<Row> TableSet::*relation;
};

/// The nine tables, in the order `storm.state.v1` writes them.
constexpr auto kTables = std::tuple{
    Table{kNodeSchema, &StateSnapshot::nodes, &TableSet::nodes},
    Table{kJobSchema, &StateSnapshot::jobs, &TableSet::jobs},
    Table{kIncarnationSchema, &StateSnapshot::incarnations,
          &TableSet::incarnations},
    Table{kMatrixSlotSchema, &StateSnapshot::matrix_slots,
          &TableSet::matrix_slots},
    Table{kMetricSchema, &StateSnapshot::metrics, &TableSet::metrics},
    Table{kReplicaSchema, &StateSnapshot::replicas, &TableSet::replicas},
    Table{kSeriesPointSchema, &StateSnapshot::timeseries,
          &TableSet::timeseries},
    Table{kBreachSchema, &StateSnapshot::breaches, &TableSet::breaches},
    Table{kSpanSchema, &StateSnapshot::spans, &TableSet::spans},
};

template <typename F>
void for_each_table(F&& f) {
  std::apply([&](const auto&... t) { (f(t), ...); }, kTables);
}

/// Calls `f(column)` for each column of `schema`, in order.
template <typename S, typename F>
void for_each_column(const S& schema, F&& f) {
  std::apply([&](const auto&... c) { (f(c), ...); }, schema.columns);
}

// --- writing: one overload per cell type -----------------------------------

template <std::integral Int>
void put(std::string& out, Int v) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}
void put(std::string& out, bool v) { out += v ? "true" : "false"; }
void put(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
}
void put(std::string& out, const std::string& v) {
  telemetry::append_json_string(out, v);
}
void put(std::string& out, core::JobState v) {
  telemetry::append_json_string(out, core::to_string(v));
}

template <typename S, typename Row>
void write_table(std::string& out, bool& first_table, const S& schema,
                 const std::vector<Row>& rows) {
  if (schema.written == Written::WhenNonEmpty && rows.empty()) return;
  out += first_table ? "\n    " : ",\n    ";
  first_table = false;
  telemetry::append_json_string(out, schema.name);
  out += ": {\"columns\": [";
  const char* sep = "";
  for_each_column(schema, [&](const auto& c) {
    out += sep;
    sep = ", ";
    telemetry::append_json_string(out, c.name);
  });
  out += "], \"rows\": [";
  const char* row_sep = "\n      [";
  for (const Row& r : rows) {
    out += row_sep;
    row_sep = ",\n      [";
    const char* cell_sep = "";
    for_each_column(schema, [&](const auto& c) {
      out += cell_sep;
      cell_sep = ",";
      put(out, r.*c.member);
    });
    out += ']';
  }
  out += rows.empty() ? "]}" : "\n    ]}";
}

// --- reading: one overload per cell type -----------------------------------

template <std::integral Int>
bool read(const json::Value& v, Int& out) {
  return v.exact(out);
}
bool read(const json::Value& v, bool& out) {
  if (!v.is_bool()) return false;
  out = v.boolean;
  return true;
}
bool read(const json::Value& v, double& out) {
  if (!v.is_number() || !std::isfinite(v.as_double())) return false;
  out = v.as_double();
  return true;
}
bool read(const json::Value& v, std::string& out) {
  if (!v.is_string()) return false;
  out = v.string;
  return true;
}
bool read(const json::Value& v, core::JobState& out) {
  if (!v.is_string()) return false;
  using core::JobState;
  for (const JobState st :
       {JobState::Queued, JobState::Transferring, JobState::Ready,
        JobState::Launching, JobState::Running, JobState::Completed,
        JobState::Aborted}) {
    if (core::to_string(st) == v.string) {
      out = st;
      return true;
    }
  }
  return false;
}

/// Loads one table into `out`: its "columns" must match the schema in
/// order, and every row must have one readable cell per column. A
/// table written only when non-empty may be absent.
template <typename S, typename Row>
bool load_table(const json::Value& tables, const S& schema,
                std::vector<Row>& out, std::string* err) {
  const auto set_err = [&](const char* what) {
    if (err != nullptr) {
      *err = "table '" + std::string(schema.name) + "': " + what;
    }
    return false;
  };
  const json::Value* t = tables.find(schema.name);
  if (t == nullptr && schema.written == Written::WhenNonEmpty) return true;
  if (t == nullptr || !t->is_object()) return set_err("missing");
  const json::Value* cols = t->find("columns");
  const json::Value* rows = t->find("rows");
  if (cols == nullptr || !cols->is_array() || rows == nullptr ||
      !rows->is_array()) {
    return set_err("malformed");
  }
  constexpr std::size_t n = std::tuple_size_v<decltype(schema.columns)>;
  if (cols->array.size() != n) return set_err("column mismatch");
  bool match = true;
  std::size_t i = 0;
  for_each_column(schema, [&](const auto& c) {
    const json::Value& v = cols->array[i++];
    match = match && v.is_string() && v.string == c.name;
  });
  if (!match) return set_err("column mismatch");
  out.reserve(rows->array.size());
  for (const json::Value& r : rows->array) {
    if (!r.is_array() || r.array.size() != n) {
      return set_err("row arity mismatch");
    }
    Row row;
    std::size_t cell = 0;
    bool ok = true;
    for_each_column(schema, [&](const auto& c) {
      ok = ok && read(r.array[cell++], row.*c.member);
    });
    if (!ok) return set_err("bad cell value");
    out.push_back(std::move(row));
  }
  return true;
}

}  // namespace

TableSet StateSnapshot::tables() const {
  TableSet t;
  t.meta = meta;
  for_each_table([&](const auto& d) {
    using R = std::remove_reference_t<decltype(t.*d.relation)>;
    t.*d.relation = R::of(this->*d.rows);
  });
  return t;
}

StateSnapshot capture(core::Cluster& cluster) {
  const TableSet live = live_tables(cluster);
  StateSnapshot s;
  s.meta = live.meta;
  for_each_table([&](const auto& d) { s.*d.rows = (live.*d.relation).rows(); });
  return s;
}

std::string to_json(const StateSnapshot& s) {
  std::string out;
  out.reserve(4096 + 64 * (s.nodes.size() + s.jobs.size() + s.spans.size() +
                           s.matrix_slots.size() + s.metrics.size()));
  out += "{\n  \"schema\": \"";
  out += kStateSchema;
  out += "\",\n  ";
  telemetry::append_json_string(out, kMetaSchema.name);
  out += ": {";
  const char* sep = "";
  for_each_column(kMetaSchema, [&](const auto& c) {
    out += sep;
    sep = ", ";
    telemetry::append_json_string(out, c.name);
    out += ": ";
    put(out, s.meta.*c.member);
  });
  out += "},\n  \"tables\": {";
  bool first_table = true;
  for_each_table([&](const auto& d) {
    write_table(out, first_table, d.schema, s.*d.rows);
  });
  out += "\n  }\n}\n";
  return out;
}

bool from_json(std::string_view text, StateSnapshot& out, std::string* err) {
  out = StateSnapshot{};
  json::Value doc;
  if (!json::parse(text, doc, err)) return false;
  const auto set_err = [&](const char* what) {
    if (err != nullptr) *err = what;
    return false;
  };
  if (!doc.is_object()) return set_err("not an object");
  const json::Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != kStateSchema) {
    return set_err("schema is not storm.state.v1");
  }
  const json::Value* meta = doc.find(kMetaSchema.name);
  if (meta == nullptr || !meta->is_object()) return set_err("missing meta");
  bool ok = true;
  for_each_column(kMetaSchema, [&](const auto& c) {
    const json::Value* v = meta->find(c.name);
    ok = ok && v != nullptr && read(*v, out.meta.*c.member);
  });
  if (!ok) return set_err("malformed meta");
  const json::Value* tables = doc.find("tables");
  if (tables == nullptr || !tables->is_object()) {
    return set_err("missing tables");
  }
  for_each_table([&](const auto& d) {
    ok = ok && load_table(*tables, d.schema, out.*d.rows, err);
  });
  return ok;
}

std::string_view find_state_json(std::string_view text) {
  const std::string marker =
      "{\n  \"schema\": \"" + std::string(kStateSchema) + "\"";
  const std::size_t pos = text.rfind(marker);
  if (pos == std::string_view::npos) return {};
  return text.substr(pos);
}

}  // namespace storm::query
