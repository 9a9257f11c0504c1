// Canned operator views over a StateSnapshot — the squeue/sinfo-style
// surface `statectl` renders. Every view is a pure function of the
// snapshot's tables (deterministic output), so a view of a captured
// live run and of the same run's parsed `storm.state.v1` file print
// the same bytes.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "query/snapshot.hpp"

namespace storm::query {

struct ViewOptions {
  int job = -1;       // spans view: restrict to this job's incarnations
  int top = 12;       // top/metrics views: max series/instruments shown
  int windows = 20;   // top/watch views: trailing windows rendered
  std::string prefix; // top/watch/metrics views: metric-name filter
};

/// Names of the canned views, in display order.
const std::vector<std::string>& view_names();

/// Render view `name` ("summary", "nodes", "queue", "matrix",
/// "failures", "replication", "spans", "metrics", "top", "watch") of
/// `t`. Returns empty and sets *err for an unknown view.
std::string render_view(std::string_view name, const StateSnapshot& t,
                        const ViewOptions& opt, std::string* err = nullptr);

}  // namespace storm::query
