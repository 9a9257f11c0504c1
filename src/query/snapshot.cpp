#include "query/snapshot.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "net/qsnet.hpp"
#include "query/json.hpp"
#include "storm/cluster.hpp"
#include "storm/machine_manager.hpp"
#include "storm/protocol.hpp"
#include "storm/replication/replication.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/tracing.hpp"

namespace storm::query {
namespace {

/// One state table: its schema and the StateSnapshot vector that
/// holds its rows.
template <typename S, typename Row>
struct Table {
  S schema;
  std::vector<Row> StateSnapshot::*rows;
};

/// The nine tables, in the order `storm.state.v1` writes them.
constexpr auto kTables = std::tuple{
    Table{kNodeSchema, &StateSnapshot::nodes},
    Table{kJobSchema, &StateSnapshot::jobs},
    Table{kIncarnationSchema, &StateSnapshot::incarnations},
    Table{kMatrixSlotSchema, &StateSnapshot::matrix_slots},
    Table{kMetricSchema, &StateSnapshot::metrics},
    Table{kReplicaSchema, &StateSnapshot::replicas},
    Table{kSeriesPointSchema, &StateSnapshot::timeseries},
    Table{kBreachSchema, &StateSnapshot::breaches},
    Table{kSpanSchema, &StateSnapshot::spans},
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

// --- capture: fill the tables from a live cluster --------------------------

ClusterMeta capture_meta(core::Cluster& cluster) {
  const core::ClusterConfig& cfg = cluster.config();
  core::MachineManager& mm = cluster.mm();
  ClusterMeta m;
  m.nodes = cfg.nodes;
  m.pls_per_node = cluster.pls_per_node();
  m.plane_mode = cfg.plane_mode;
  m.scheduler = std::string(core::to_string(cfg.storm.scheduler));
  m.quantum_ns = cfg.storm.quantum.raw_ns();
  m.heartbeat_enabled = cfg.storm.heartbeat_enabled;
  m.heartbeat_miss_periods = cfg.storm.heartbeat_miss_periods;
  m.max_job_restarts = cfg.storm.max_job_restarts;
  m.seed = cfg.seed;
  m.sim_ns = cluster.sim().now().raw_ns();
  m.mm_node = mm.node();
  m.standby_active = cluster.mm_standby() != nullptr &&
                     cluster.mm_standby()->active();
  m.hb_epoch = mm.heartbeat_epoch();
  m.queued = static_cast<std::int64_t>(mm.queued_count());
  m.completed = mm.completed_count();
  m.strobes = mm.strobes_issued();
  m.matrix_rows = mm.matrix().rows();
  return m;
}

/// Nodes and matrix slots together: the slot scan also counts each
/// node's occupied cells.
void capture_nodes(core::Cluster& c, StateSnapshot& s) {
  const net::NodeStatePlane& plane = c.network().plane();
  core::MachineManager& mm = c.mm();
  const core::OusterhoutMatrix& matrix = mm.matrix();
  const auto& dead = mm.failed_nodes();  // sorted ascending
  const int nodes = c.config().nodes;
  s.nodes.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    NodeRow& r = s.nodes.emplace_back();
    r.node = n;
    r.failed = plane.failed(n);
    r.crashed = c.node_crashed(n);
    r.evicted = matrix.evicted(n);
    r.mm_failed = std::binary_search(dead.begin(), dead.end(), n);
    r.epoch = c.node_epoch(n);
    r.heartbeat = plane.word(n, core::kHeartbeatAddr);
    r.strobe_row = plane.word(n, core::kStrobeRowAddr);
    r.pl_mask = plane.pl_mask(n);
    r.pl_busy = __builtin_popcountll(r.pl_mask);
  }
  for (int row = 0; row < matrix.rows(); ++row) {
    for (int node = 0; node < matrix.nodes(); ++node) {
      const core::JobId j = matrix.cell_job(row, node);
      if (j == core::kInvalidJob) continue;
      s.matrix_slots.push_back({row, node, j});
      ++s.nodes[static_cast<std::size_t>(node)].matrix_cells;
    }
  }
}

/// Jobs and their incarnations, both in job id order.
void capture_jobs(core::Cluster& c, StateSnapshot& s) {
  const core::OusterhoutMatrix& matrix = c.mm().matrix();
  const int count = static_cast<int>(c.job_count());
  s.jobs.reserve(static_cast<std::size_t>(count));
  for (core::JobId id = 0; id < count; ++id) {
    const core::Job& j = c.job(id);
    JobRow& r = s.jobs.emplace_back();
    r.id = id;
    r.name = j.spec().name;
    r.state = j.state();
    r.npes = j.spec().npes;
    r.binary_bytes = static_cast<std::int64_t>(j.spec().binary_size);
    r.pes_per_node = j.pes_per_node();
    r.row = j.row();
    r.first_node = j.nodes().first;
    r.node_count = j.nodes().count;
    if (const auto p = matrix.placement(id)) {
      r.placed = true;
      r.placement_row = p->first;
      r.placement_first = p->second.first;
      r.placement_count = p->second.count;
    }
    r.incarnation = j.incarnation();
    r.restarts = j.restarts();
    const core::JobTimes& t = j.times();
    r.submit_ns = t.submit.raw_ns();
    r.transfer_start_ns = t.transfer_start.raw_ns();
    r.transfer_done_ns = t.transfer_done.raw_ns();
    r.launch_issued_ns = t.launch_issued.raw_ns();
    r.started_ns = t.started.raw_ns();
    r.finished_ns = t.finished.raw_ns();
    r.last_requeue_ns = t.last_requeue.raw_ns();
    r.first_proc_started_ns = t.first_proc_started.raw_ns();
    r.last_proc_exited_ns = t.last_proc_exited.raw_ns();
    for (int inc = 0; inc <= j.incarnation(); ++inc) {
      const bool current = inc == j.incarnation();
      s.incarnations.push_back({id, inc, current,
                                current && occupies_resources(j.state()),
                                telemetry::job_trace_id(id, inc)});
    }
  }
}

void capture_metrics(const telemetry::MetricsRegistry& reg, StateSnapshot& s) {
  reg.for_each_counter(
      [&](const std::string& name, const telemetry::Counter& m) {
        s.metrics.push_back({.name = name, .kind = "counter",
                             .count = m.value()});
      });
  reg.for_each_gauge([&](const std::string& name, const telemetry::Gauge& m) {
    s.metrics.push_back({.name = name, .kind = "gauge", .value = m.value()});
  });
  reg.for_each_histogram(
      [&](const std::string& name, const telemetry::Histogram& m) {
        s.metrics.push_back({.name = name, .kind = "histogram",
                             .count = m.count(), .sum = m.sum(),
                             .min = m.min(), .max = m.max()});
      });
}

void capture_replicas(const core::ReplicationGroup& g, StateSnapshot& s) {
  for (const core::ReplicaStatus& st : g.status()) {
    s.replicas.push_back({.rank = st.rank,
                          .node = st.node,
                          .role = std::string(core::to_string(st.role)),
                          .term = st.term,
                          .commit = st.commit,
                          .applied = st.applied,
                          .log_size = st.log_size,
                          .lease_ns = st.lease_ns,
                          .floor_index = st.floor_index,
                          .floor_digest = st.floor_digest});
  }
}

/// Both recorder tables from one store copy; its breaches are moved.
void capture_timeseries(const telemetry::TimeSeriesRecorder& rec,
                        StateSnapshot& s) {
  telemetry::TimeSeriesStore store = rec.snapshot();
  s.timeseries.reserve(store.total_points());
  store.visit_points([&](const telemetry::TimeSeriesStore::PointView& pv) {
    SeriesPointRow& r = s.timeseries.emplace_back();
    r.window = pv.window;
    r.t_start_ns = pv.t_start_ns;
    r.t_end_ns = pv.t_end_ns;
    r.name = *pv.name;
    r.kind = telemetry::to_string(pv.kind);
    switch (pv.kind) {
      case telemetry::SeriesKind::Counter:
        r.delta = pv.point->delta;
        r.value = pv.rate();
        break;
      case telemetry::SeriesKind::Gauge:
        r.value = pv.point->value;
        break;
      case telemetry::SeriesKind::Histogram:
        r.count = pv.point->count;
        r.sum = pv.point->sum;
        r.p50 = pv.point->quantile(0.50);
        r.p90 = pv.point->quantile(0.90);
        r.p99 = pv.point->quantile(0.99);
        break;
    }
    return true;
  });
  s.breaches.reserve(store.breaches.size());
  for (telemetry::WatchdogBreach& b : store.breaches) {
    s.breaches.push_back({std::move(b.rule), std::move(b.metric), b.window,
                          b.t_ns, b.value, b.threshold});
  }
}

void capture_spans(const telemetry::CausalTracer& tracer, StateSnapshot& s) {
  const auto& spans = tracer.buffer().spans();
  s.spans.reserve(spans.size());
  for (const telemetry::SpanRecord& r : spans) {
    s.spans.push_back({r.trace, r.span, r.parent, r.t_start_ns, r.t_end_ns,
                       r.node, r.kind, r.a, r.b});
  }
}

}  // namespace

StateSnapshot capture(core::Cluster& cluster) {
  StateSnapshot s;
  s.meta = capture_meta(cluster);
  capture_nodes(cluster, s);
  capture_jobs(cluster, s);
  capture_metrics(cluster.metrics(), s);
  if (const core::ReplicationGroup* g = cluster.replication()) {
    capture_replicas(*g, s);
  }
  if (const telemetry::TimeSeriesRecorder* rec = cluster.timeseries()) {
    capture_timeseries(*rec, s);
  }
  if (const telemetry::CausalTracer* tracer = cluster.tracer()) {
    capture_spans(*tracer, s);
  }
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
