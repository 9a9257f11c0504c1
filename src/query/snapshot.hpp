// The state plane's one table type (DESIGN.md §3.5): a StateSnapshot
// holds the ClusterMeta header and one vector per `storm.state.v1`
// table. Views, invariants and `statectl` all read it.
//
// capture() fills the vectors straight from a live cluster; to_json()
// serialises them with the same rules the metrics/trace exporters
// follow — fixed table and column order, entries in capture order
// (node id, job id, (job, inc), (row, node), registry name order,
// replica rank, (window, series name), breach order, span id),
// integers exact, doubles via %.10g — so two same-seed runs export
// byte-identical snapshots and CI can diff them like it already diffs
// `--metrics` and `--trace` files. from_json() loads a file back into
// the same vectors.
//
// Adding a table is one row type and schema (rows.hpp), one member
// below, and one entry in the table list and one fill loop in
// snapshot.cpp.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "query/rows.hpp"

namespace storm::core {
class Cluster;
}

namespace storm::query {

inline constexpr std::string_view kStateSchema = "storm.state.v1";

struct StateSnapshot {
  ClusterMeta meta;
  std::vector<NodeRow> nodes;
  std::vector<JobRow> jobs;
  std::vector<IncarnationRow> incarnations;
  std::vector<MatrixSlotRow> matrix_slots;
  std::vector<MetricRow> metrics;
  std::vector<SpanRow> spans;
  // Written (and required on parse) only when non-empty: snapshots
  // from replication-disabled runs stay byte-identical to pre-
  // replication goldens.
  std::vector<ReplicaRow> replicas;
  // Same contract as `replicas`: present only when the time-series
  // recorder was armed (DESIGN.md §3.7), so recorder-off snapshots
  // keep their pre-§3.7 bytes.
  std::vector<SeriesPointRow> timeseries;
  std::vector<BreachRow> breaches;
};

/// Read the cluster's state into a snapshot. A pure read: no
/// simulated time, no randomness, no cluster mutation.
StateSnapshot capture(core::Cluster& cluster);

/// Serialise to `storm.state.v1` (deterministic; see header comment).
std::string to_json(const StateSnapshot& s);

/// Parse a `storm.state.v1` document. Returns false and sets *err on
/// malformed input or schema mismatch.
bool from_json(std::string_view text, StateSnapshot& out,
               std::string* err = nullptr);

/// Locate the last `storm.state.v1` document inside mixed text — a
/// bench run with `--state -` appends the snapshot to its stdout, so
/// `statectl` pipelines scan backwards for it. Returns the document
/// substring, or empty if none found.
std::string_view find_state_json(std::string_view text);

}  // namespace storm::query
