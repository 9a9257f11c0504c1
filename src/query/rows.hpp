// Row types of the queryable state plane (DESIGN.md §3.5): one struct
// per table, plus the ClusterMeta header every TableSet carries.
//
// Each row is a plain value — the *relations* over them are what stay
// zero-copy (tables.hpp scans the live cluster structures and
// manufactures rows on the fly; snapshot.hpp materializes the same
// rows into vectors). Keeping the row types shared between the live
// and snapshot paths is the whole point: an invariant or a canned view
// written against these structs runs unchanged on a live Cluster and
// on a parsed `storm.state.v1` file.
//
// Each row type is followed by its schema: the table name and the
// ordered (column name, member) list that `storm.state.v1` writes and
// loads (snapshot.cpp). A new column is one field, one schema entry and
// one assignment in the live scan (tables.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>

#include "query/relation.hpp"
#include "storm/job.hpp"

namespace storm::query {

/// One column of a state table: its name and the row member it holds.
template <typename Row, typename T>
struct Column {
  std::string_view name;
  T Row::*member;
};

template <typename Row, typename T>
constexpr Column<Row, T> col(std::string_view name, T Row::*member) {
  return {name, member};
}

/// Whether the snapshot writes a table that has no rows. Tables that
/// only some runs fill (replication, the time-series recorder) are
/// written only when non-empty, so snapshots of runs without them keep
/// the bytes they had before those tables existed.
enum class Written { Always, WhenNonEmpty };

/// A state table's schema, declared once per row type below.
template <typename Row, typename... T>
struct Schema {
  std::string_view name;
  Written written;
  std::tuple<Column<Row, T>...> columns;
};

template <typename Row, typename... T>
constexpr Schema<Row, T...> schema(std::string_view name, Written written,
                                   Column<Row, T>... columns) {
  return {name, written, {columns...}};
}

/// True for states in which a job's current incarnation owns cluster
/// resources (a matrix placement, NIC words, possibly busy PLs).
constexpr bool occupies_resources(core::JobState s) {
  switch (s) {
    case core::JobState::Transferring:
    case core::JobState::Ready:
    case core::JobState::Launching:
    case core::JobState::Running:
      return true;
    case core::JobState::Queued:
    case core::JobState::Completed:
    case core::JobState::Aborted:
      return false;
  }
  return false;
}

/// Scalar cluster-level facts sampled when a TableSet is built. Unlike
/// the relations (live scans), this is a value snapshot — rebuild the
/// TableSet to refresh it.
struct ClusterMeta {
  int nodes = 0;
  int pls_per_node = 0;
  bool plane_mode = false;
  std::string scheduler;  // to_string(SchedulerKind)
  std::int64_t quantum_ns = 0;
  bool heartbeat_enabled = false;
  int heartbeat_miss_periods = 0;
  int max_job_restarts = 0;
  std::uint64_t seed = 0;
  std::int64_t sim_ns = 0;     // simulated clock at sample time
  int mm_node = -1;            // node hosting the ACTIVE MM
  bool standby_active = false; // a standby MM has taken over
  std::int64_t hb_epoch = 0;   // active MM's heartbeat epoch counter
  std::int64_t queued = 0;     // active MM queue length
  std::int64_t completed = 0;  // jobs observed terminal by the MM
  std::int64_t strobes = 0;    // strobes issued by the active MM
  int matrix_rows = 0;         // Ousterhout matrix MPL
};

/// Written as one `"key": value` object rather than a table.
inline constexpr auto kMetaSchema = schema<ClusterMeta>(
    "meta", Written::Always, col("nodes", &ClusterMeta::nodes),
    col("pls_per_node", &ClusterMeta::pls_per_node),
    col("plane_mode", &ClusterMeta::plane_mode),
    col("scheduler", &ClusterMeta::scheduler),
    col("quantum_ns", &ClusterMeta::quantum_ns),
    col("heartbeat_enabled", &ClusterMeta::heartbeat_enabled),
    col("heartbeat_miss_periods", &ClusterMeta::heartbeat_miss_periods),
    col("max_job_restarts", &ClusterMeta::max_job_restarts),
    col("seed", &ClusterMeta::seed), col("sim_ns", &ClusterMeta::sim_ns),
    col("mm_node", &ClusterMeta::mm_node),
    col("standby_active", &ClusterMeta::standby_active),
    col("hb_epoch", &ClusterMeta::hb_epoch),
    col("queued", &ClusterMeta::queued),
    col("completed", &ClusterMeta::completed),
    col("strobes", &ClusterMeta::strobes),
    col("matrix_rows", &ClusterMeta::matrix_rows));

/// One cluster node: state-plane flags and words, crash-model state,
/// and its column's footprint in the Ousterhout matrix.
///
/// Authority note (invariants depend on it): `failed` is the NIC
/// ground truth — the plane bit the fabric flips the instant a node
/// crashes. `mm_failed` and `evicted` are the management plane's
/// *declared* knowledge, which lags detection by design and can
/// disagree with ground truth under partition (a declared-dead node
/// may be physically alive and still own busy PLs).
struct NodeRow {
  int node = 0;
  bool failed = false;     // state-plane failed bit (NIC ground truth)
  bool crashed = false;    // crash-model flag (full-sim mode)
  bool evicted = false;    // evicted from the matrix buddy trees
  bool mm_failed = false;  // on the active MM's declared-dead list
  int epoch = 0;           // bumped per crash of this node
  std::int64_t heartbeat = 0;   // plane word kHeartbeatAddr
  std::int64_t strobe_row = 0;  // plane word kStrobeRowAddr
  std::uint64_t pl_mask = 0;    // Program-Launcher busy bitmask
  int pl_busy = 0;              // popcount(pl_mask)
  int matrix_cells = 0;         // occupied matrix cells in this column
};

inline constexpr auto kNodeSchema = schema<NodeRow>(
    "nodes", Written::Always, col("node", &NodeRow::node),
    col("failed", &NodeRow::failed), col("crashed", &NodeRow::crashed),
    col("evicted", &NodeRow::evicted), col("mm_failed", &NodeRow::mm_failed),
    col("epoch", &NodeRow::epoch), col("heartbeat", &NodeRow::heartbeat),
    col("strobe_row", &NodeRow::strobe_row), col("pl_mask", &NodeRow::pl_mask),
    col("pl_busy", &NodeRow::pl_busy),
    col("matrix_cells", &NodeRow::matrix_cells));

/// One submitted job. Allocation appears twice on purpose: row /
/// first_node / node_count are what the *job* records
/// (Job::set_allocation), placement_* is what the *matrix* holds
/// (OusterhoutMatrix::placement) — the placement-allocation-agree
/// invariant checks they never diverge while the job is live.
struct JobRow {
  core::JobId id = 0;
  std::string name;
  core::JobState state = core::JobState::Queued;
  int npes = 0;
  std::int64_t binary_bytes = 0;
  int pes_per_node = 1;
  int row = 0;         // job-recorded timeslot
  int first_node = 0;  // job-recorded allocation
  int node_count = 0;
  bool placed = false;  // currently holds a matrix placement
  int placement_row = -1;
  int placement_first = -1;
  int placement_count = 0;
  int incarnation = 0;
  int restarts = 0;
  // MM-observed + app-side timestamps, ns (0 = not reached yet).
  std::int64_t submit_ns = 0;
  std::int64_t transfer_start_ns = 0;
  std::int64_t transfer_done_ns = 0;
  std::int64_t launch_issued_ns = 0;
  std::int64_t started_ns = 0;
  std::int64_t finished_ns = 0;
  std::int64_t last_requeue_ns = 0;
  std::int64_t first_proc_started_ns = 0;
  std::int64_t last_proc_exited_ns = 0;

  bool terminal() const {
    return state == core::JobState::Completed ||
           state == core::JobState::Aborted;
  }
};

/// `state` is written as its core::to_string name.
inline constexpr auto kJobSchema = schema<JobRow>(
    "jobs", Written::Always, col("id", &JobRow::id), col("name", &JobRow::name),
    col("state", &JobRow::state), col("npes", &JobRow::npes),
    col("binary_bytes", &JobRow::binary_bytes),
    col("pes_per_node", &JobRow::pes_per_node), col("row", &JobRow::row),
    col("first_node", &JobRow::first_node),
    col("node_count", &JobRow::node_count), col("placed", &JobRow::placed),
    col("placement_row", &JobRow::placement_row),
    col("placement_first", &JobRow::placement_first),
    col("placement_count", &JobRow::placement_count),
    col("incarnation", &JobRow::incarnation),
    col("restarts", &JobRow::restarts), col("submit_ns", &JobRow::submit_ns),
    col("transfer_start_ns", &JobRow::transfer_start_ns),
    col("transfer_done_ns", &JobRow::transfer_done_ns),
    col("launch_issued_ns", &JobRow::launch_issued_ns),
    col("started_ns", &JobRow::started_ns),
    col("finished_ns", &JobRow::finished_ns),
    col("last_requeue_ns", &JobRow::last_requeue_ns),
    col("first_proc_started_ns", &JobRow::first_proc_started_ns),
    col("last_proc_exited_ns", &JobRow::last_proc_exited_ns));

/// One incarnation of a job (kill-and-requeue bumps it). `live` means
/// this incarnation is the current one AND in a state that owns
/// cluster resources (Transferring/Ready/Launching/Running) — the
/// unit the slot-sharing invariant quantifies over.
struct IncarnationRow {
  core::JobId job = 0;
  int inc = 0;
  bool current = false;
  bool live = false;
  std::uint64_t trace = 0;  // telemetry::job_trace_id(job, inc)
};

inline constexpr auto kIncarnationSchema = schema<IncarnationRow>(
    "incarnations", Written::Always, col("job", &IncarnationRow::job),
    col("inc", &IncarnationRow::inc), col("current", &IncarnationRow::current),
    col("live", &IncarnationRow::live), col("trace", &IncarnationRow::trace));

/// One occupied Ousterhout matrix cell.
struct MatrixSlotRow {
  int row = 0;
  int node = 0;
  core::JobId job = core::kInvalidJob;
};

inline constexpr auto kMatrixSlotSchema = schema<MatrixSlotRow>(
    "matrix_slots", Written::Always, col("row", &MatrixSlotRow::row),
    col("node", &MatrixSlotRow::node), col("job", &MatrixSlotRow::job));

/// One registry instrument, flattened: kind selects which fields are
/// meaningful (counter → count; gauge → value; histogram → count /
/// sum / min / max).
struct MetricRow {
  std::string name;
  std::string kind;  // "counter" | "gauge" | "histogram"
  std::int64_t count = 0;
  double value = 0.0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
};

inline constexpr auto kMetricSchema = schema<MetricRow>(
    "metrics", Written::Always, col("name", &MetricRow::name),
    col("kind", &MetricRow::kind), col("count", &MetricRow::count),
    col("value", &MetricRow::value), col("sum", &MetricRow::sum),
    col("min", &MetricRow::min), col("max", &MetricRow::max));

/// One MM replica of the quorum-replication group (empty relation when
/// replication is disabled — the snapshot then omits the table
/// entirely, keeping pre-replication goldens byte-identical).
/// `floor_index` is the group-wide minimum commit at sample time and
/// `floor_digest` this replica's state-machine digest at that index:
/// the committed-prefix-agreement invariant requires every replica's
/// digest to agree there.
struct ReplicaRow {
  int rank = 0;
  int node = 0;
  std::string role;  // to_string(ReplRole)
  std::int64_t term = 0;
  std::int64_t commit = 0;
  std::int64_t applied = 0;
  std::int64_t log_size = 0;
  std::int64_t lease_ns = 0;  // remaining lease (live leaders only)
  std::int64_t floor_index = 0;
  std::uint64_t floor_digest = 0;
};

inline constexpr auto kReplicaSchema = schema<ReplicaRow>(
    "replicas", Written::WhenNonEmpty, col("rank", &ReplicaRow::rank),
    col("node", &ReplicaRow::node), col("role", &ReplicaRow::role),
    col("term", &ReplicaRow::term), col("commit", &ReplicaRow::commit),
    col("applied", &ReplicaRow::applied),
    col("log_size", &ReplicaRow::log_size),
    col("lease_ns", &ReplicaRow::lease_ns),
    col("floor_index", &ReplicaRow::floor_index),
    col("floor_digest", &ReplicaRow::floor_digest));

/// One recorded window of one time series (DESIGN.md §3.7): the
/// flattened form of a telemetry::TimeSeriesStore point. `kind`
/// selects the meaningful fields — counter → delta + value (rate/s),
/// gauge → value, histogram → count / sum / p50 / p90 / p99 (ns).
/// Window bounds ride per-row so ClusterMeta (and with it the
/// unconditional part of storm.state.v1) stays untouched.
struct SeriesPointRow {
  std::int64_t window = 0;
  std::int64_t t_start_ns = 0;
  std::int64_t t_end_ns = 0;
  std::string name;
  std::string kind;  // "counter" | "gauge" | "histogram"
  std::int64_t delta = 0;
  double value = 0.0;  // gauge sample, or counter rate per second
  std::int64_t count = 0;
  std::int64_t sum = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

inline constexpr auto kSeriesPointSchema = schema<SeriesPointRow>(
    "timeseries", Written::WhenNonEmpty,
    col("window", &SeriesPointRow::window),
    col("t_start_ns", &SeriesPointRow::t_start_ns),
    col("t_end_ns", &SeriesPointRow::t_end_ns),
    col("name", &SeriesPointRow::name), col("kind", &SeriesPointRow::kind),
    col("delta", &SeriesPointRow::delta), col("value", &SeriesPointRow::value),
    col("count", &SeriesPointRow::count), col("sum", &SeriesPointRow::sum),
    col("p50", &SeriesPointRow::p50), col("p90", &SeriesPointRow::p90),
    col("p99", &SeriesPointRow::p99));

/// One fired watchdog rule (first window of a breach episode).
struct BreachRow {
  std::string rule;
  std::string metric;
  std::int64_t window = 0;
  std::int64_t t_ns = 0;
  double value = 0.0;
  double threshold = 0.0;
};

inline constexpr auto kBreachSchema = schema<BreachRow>(
    "breaches", Written::WhenNonEmpty, col("rule", &BreachRow::rule),
    col("metric", &BreachRow::metric), col("window", &BreachRow::window),
    col("t_ns", &BreachRow::t_ns), col("value", &BreachRow::value),
    col("threshold", &BreachRow::threshold));

/// One causal-tracing span (mirrors telemetry::SpanRecord; `kind` is
/// the raw SpanKind value — views map it to its name).
struct SpanRow {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  std::int64_t t_start_ns = 0;
  std::int64_t t_end_ns = -1;
  int node = -1;
  int kind = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;

  bool open() const { return t_end_ns < 0; }
};

inline constexpr auto kSpanSchema = schema<SpanRow>(
    "spans", Written::Always, col("trace", &SpanRow::trace),
    col("span", &SpanRow::span), col("parent", &SpanRow::parent),
    col("t_start_ns", &SpanRow::t_start_ns),
    col("t_end_ns", &SpanRow::t_end_ns), col("node", &SpanRow::node),
    col("kind", &SpanRow::kind), col("a", &SpanRow::a), col("b", &SpanRow::b));

/// The tables plus the meta header. Built either live
/// (tables.hpp: relations scan the cluster at each use) or from a
/// snapshot (snapshot.hpp: relations over materialized vectors); every
/// consumer — views, invariants, tests — takes a TableSet and cannot
/// tell the difference.
struct TableSet {
  ClusterMeta meta;
  Relation<NodeRow> nodes;
  Relation<JobRow> jobs;
  Relation<IncarnationRow> incarnations;
  Relation<MatrixSlotRow> matrix_slots;
  Relation<MetricRow> metrics;
  Relation<SpanRow> spans;
  Relation<ReplicaRow> replicas;  // empty unless replication is enabled
  // Both empty unless enable_timeseries() armed the flight recorder —
  // like `replicas`, the snapshot omits the tables entirely then.
  Relation<SeriesPointRow> timeseries;
  Relation<BreachRow> breaches;
};

}  // namespace storm::query
