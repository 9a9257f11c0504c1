#include "query/invariants.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "fabric/message.hpp"
#include "sim/simulator.hpp"
#include "storm/cluster.hpp"

namespace storm::query {
namespace {

std::string job_label(const JobRow& j) {
  return "job " + std::to_string(j.id) + " (" + j.name + ")";
}

bool suspect(const NodeRow& n) {
  return n.failed || n.crashed || n.evicted || n.mm_failed;
}

bool ranges_overlap(int first_a, int count_a, int first_b, int count_b) {
  return first_a < first_b + count_b && first_b < first_a + count_a;
}

// "No two live incarnations share a matrix slot": every occupied cell
// is owned by a job that exists, is in a resource-owning state, and
// whose recorded placement covers exactly that cell.
void slot_owner_live(const StateSnapshot& t, std::vector<Violation>& out) {
  std::multimap<core::JobId, const JobRow*> by_id;
  for (const JobRow& j : t.jobs) by_id.emplace(j.id, &j);
  std::vector<const MatrixSlotRow*> unknown;
  for (const MatrixSlotRow& slot : t.matrix_slots) {
    const auto [lo, hi] = by_id.equal_range(slot.job);
    if (lo == hi) unknown.push_back(&slot);
    for (auto it = lo; it != hi; ++it) {
      const JobRow& job = *it->second;
      if (!occupies_resources(job.state)) {
        out.push_back({"slot-owner-live",
                       "cell (" + std::to_string(slot.row) + ", " +
                           std::to_string(slot.node) + ") owned by " +
                           job_label(job) + " in state " +
                           core::to_string(job.state)});
      } else if (!job.placed || slot.row != job.placement_row ||
                 slot.node < job.placement_first ||
                 slot.node >= job.placement_first + job.placement_count) {
        out.push_back({"slot-owner-live",
                       "cell (" + std::to_string(slot.row) + ", " +
                           std::to_string(slot.node) +
                           ") outside the placement of " + job_label(job)});
      }
    }
  }
  for (const MatrixSlotRow* s : unknown) {
    out.push_back({"slot-owner-live",
                   "cell (" + std::to_string(s->row) + ", " +
                       std::to_string(s->node) + ") owned by unknown job " +
                       std::to_string(s->job)});
  }
}

// The job-recorded allocation and the matrix placement never diverge,
// and (gang scheduling) a resource-owning job always holds a placement.
void placement_allocation_agree(const StateSnapshot& t,
                                std::vector<Violation>& out) {
  for (const JobRow& j : t.jobs) {
    if (j.placed && (j.row != j.placement_row ||
                     j.first_node != j.placement_first ||
                     j.node_count != j.placement_count)) {
      out.push_back(
          {"placement-allocation-agree",
           job_label(j) + " records allocation (row " +
               std::to_string(j.row) + ", nodes " +
               std::to_string(j.first_node) + "+" +
               std::to_string(j.node_count) + ") but the matrix holds (row " +
               std::to_string(j.placement_row) + ", nodes " +
               std::to_string(j.placement_first) + "+" +
               std::to_string(j.placement_count) + ")"});
    }
  }
  if (t.meta.scheduler == "gang") {
    for (const JobRow& j : t.jobs) {
      if (occupies_resources(j.state) && !j.placed) {
        out.push_back({"placement-allocation-agree",
                       job_label(j) + " is " + core::to_string(j.state) +
                           " but holds no matrix placement"});
      }
    }
  }
}

// Live allocations in the same timeslot are disjoint. Skipped for the
// locally-scheduled foils (LocalOs / implicit coscheduling), whose
// whole point is uncoordinated node sharing.
void live_allocations_disjoint(const StateSnapshot& t,
                               std::vector<Violation>& out) {
  if (t.meta.scheduler == "local-os" ||
      t.meta.scheduler == "implicit-cosched") {
    return;
  }
  std::vector<const JobRow*> live;
  for (const JobRow& j : t.jobs) {
    if (occupies_resources(j.state) && j.node_count > 0) live.push_back(&j);
  }
  for (std::size_t a = 0; a < live.size(); ++a) {
    for (std::size_t b = a + 1; b < live.size(); ++b) {
      if (live[a]->row != live[b]->row) continue;
      if (ranges_overlap(live[a]->first_node, live[a]->node_count,
                         live[b]->first_node, live[b]->node_count)) {
        out.push_back({"live-allocations-disjoint",
                       job_label(*live[a]) + " and " + job_label(*live[b]) +
                           " overlap in row " + std::to_string(live[a]->row)});
      }
    }
  }
}

// Plane-failed (NIC ground truth) implies idle Program Launchers: a
// dead node's PEs died with it.
void failed_node_pl_idle(const StateSnapshot& t,
                         std::vector<Violation>& out) {
  for (const NodeRow& n : t.nodes) {
    if (n.failed && n.pl_busy > 0) {
      out.push_back({"failed-node-pl-idle",
                     "node " + std::to_string(n.node) + " is failed but " +
                         std::to_string(n.pl_busy) +
                         " launcher slot(s) are busy"});
    }
  }
}

// Matrix-evicted (declared knowledge) implies the node owns no cells
// and no live placement spans it. The window between a crash and its
// heartbeat declaration is legitimate and not covered here — that is
// exactly why this keys on `evicted`, not on the plane bit.
void evicted_node_unused(const StateSnapshot& t,
                         std::vector<Violation>& out) {
  std::vector<int> evicted;
  for (const NodeRow& n : t.nodes) {
    if (!n.evicted) continue;
    evicted.push_back(n.node);
    if (n.matrix_cells > 0) {
      out.push_back({"evicted-node-unused",
                     "node " + std::to_string(n.node) + " is evicted but owns " +
                         std::to_string(n.matrix_cells) + " matrix cell(s)"});
    }
  }
  if (evicted.empty()) return;
  for (const JobRow& j : t.jobs) {
    if (!occupies_resources(j.state) || !j.placed) continue;
    for (const int node : evicted) {
      if (node >= j.placement_first &&
          node < j.placement_first + j.placement_count) {
        out.push_back({"evicted-node-unused",
                       job_label(j) + "'s placement spans evicted node " +
                           std::to_string(node)});
      }
    }
  }
}

// Every clean node's heartbeat word tracks the MM's epoch within the
// configured miss slack (+1 for the round whose multicast is still in
// flight). Nodes with word 0 have not joined the heartbeat protocol
// yet (startup, or a recovery wipe before the next round) and are
// skipped, as are suspects.
void heartbeat_fresh(const StateSnapshot& t, std::vector<Violation>& out) {
  if (!t.meta.heartbeat_enabled || t.meta.hb_epoch <= 0) return;
  const std::int64_t slack = t.meta.heartbeat_miss_periods + 1;
  const std::int64_t epoch = t.meta.hb_epoch;
  for (const NodeRow& n : t.nodes) {
    if (suspect(n) || n.heartbeat <= 0 || epoch - n.heartbeat <= slack) {
      continue;
    }
    out.push_back(
        {"heartbeat-fresh",
         "node " + std::to_string(n.node) + " heartbeat word " +
             std::to_string(n.heartbeat) + " lags epoch " +
             std::to_string(epoch) + " beyond the slack of " +
             std::to_string(slack) + " without being declared dead"});
  }
}

// The MM's queue length equals the number of Queued jobs, and (until a
// failover rebuilds MM-local counters) its completed count equals the
// number of terminal jobs.
void queue_accounting(const StateSnapshot& t, std::vector<Violation>& out) {
  const std::int64_t queued = std::ranges::count(
      t.jobs, core::JobState::Queued, &JobRow::state);
  if (queued != t.meta.queued) {
    out.push_back({"queue-accounting",
                   "MM queue holds " + std::to_string(t.meta.queued) +
                       " job(s) but " + std::to_string(queued) +
                       " job(s) are Queued"});
  }
  if (!t.meta.standby_active) {
    const std::int64_t terminal =
        std::ranges::count_if(t.jobs, &JobRow::terminal);
    if (terminal != t.meta.completed) {
      out.push_back({"queue-accounting",
                     "MM observed " + std::to_string(t.meta.completed) +
                         " terminal job(s) but the job table holds " +
                         std::to_string(terminal)});
    }
  }
}

// Timestamps of a completed job are monotone through the lifecycle and
// the restart budget is honoured.
void job_lifecycle(const StateSnapshot& t, std::vector<Violation>& out) {
  const int restart_cap = t.meta.max_job_restarts + 1;  // final kill may
                                                        // bump once more
  for (const JobRow& j : t.jobs) {
    if (j.restarts > restart_cap) {
      out.push_back({"job-lifecycle",
                     job_label(j) + " has " + std::to_string(j.restarts) +
                         " restarts, over the budget of " +
                         std::to_string(t.meta.max_job_restarts)});
    }
    if (j.state != core::JobState::Completed) continue;
    const std::pair<const char*, std::int64_t> chain[] = {
        {"submit", j.submit_ns},
        {"transfer_start", j.transfer_start_ns},
        {"transfer_done", j.transfer_done_ns},
        {"launch_issued", j.launch_issued_ns},
        {"started", j.started_ns},
        {"finished", j.finished_ns},
    };
    std::int64_t prev = 0;
    const char* prev_name = "zero";
    for (const auto& [name, ns] : chain) {
      if (ns == 0) continue;  // stage not reached / not recorded
      if (ns < prev) {
        out.push_back({"job-lifecycle",
                       job_label(j) + ": " + name + " (" +
                           std::to_string(ns) + " ns) precedes " + prev_name +
                           " (" + std::to_string(prev) + " ns)"});
      }
      prev = ns;
      prev_name = name;
    }
    if (j.first_proc_started_ns > 0 && j.last_proc_exited_ns > 0 &&
        j.last_proc_exited_ns < j.first_proc_started_ns) {
      out.push_back({"job-lifecycle",
                     job_label(j) + ": last PE exit precedes first PE start"});
    }
  }
}

// Counters are non-negative; histogram count/sum/min/max are mutually
// consistent.
void metrics_sane(const StateSnapshot& t, std::vector<Violation>& out) {
  for (const MetricRow& m : t.metrics) {
    if (m.kind == "counter") {
      if (m.count < 0) {
        out.push_back({"metrics-sane",
                       "counter " + m.name + " is negative (" +
                           std::to_string(m.count) + ")"});
      }
      continue;
    }
    if (m.kind != "histogram") continue;
    if (m.count < 0) {
      out.push_back({"metrics-sane", "histogram " + m.name +
                                         " has negative count"});
      continue;
    }
    if (m.count == 0) continue;
    if (m.min > m.max || m.sum < m.count * m.min ||
        m.sum > m.count * m.max) {
      out.push_back({"metrics-sane",
                     "histogram " + m.name + " is inconsistent (count " +
                         std::to_string(m.count) + ", sum " +
                         std::to_string(m.sum) + ", min " +
                         std::to_string(m.min) + ", max " +
                         std::to_string(m.max) + ")"});
    }
  }
}

// The time-series flight recorder (§3.7) must emit windows that are
// physically possible: positive window spans, non-negative counter
// deltas and sketch counts, monotone quantiles, and a time-major scan
// order (the order visit_points/the snapshot writer guarantee).
void timeseries_sane(const StateSnapshot& t, std::vector<Violation>& out) {
  std::int64_t prev_window = std::numeric_limits<std::int64_t>::min();
  for (const SeriesPointRow& r : t.timeseries) {
    if (r.t_end_ns <= r.t_start_ns) {
      out.push_back({"timeseries-sane",
                     "series " + r.name + " window " +
                         std::to_string(r.window) + " has non-positive span"});
    }
    if (r.window < prev_window) {
      out.push_back({"timeseries-sane",
                     "series " + r.name + " window " +
                         std::to_string(r.window) +
                         " breaks time-major scan order"});
    }
    prev_window = r.window;
    if (r.kind == "counter" && r.delta < 0) {
      out.push_back({"timeseries-sane",
                     "counter " + r.name + " window " +
                         std::to_string(r.window) + " has negative delta (" +
                         std::to_string(r.delta) + ")"});
    }
    if (r.kind == "histogram") {
      if (r.count <= 0) {
        out.push_back({"timeseries-sane",
                       "histogram " + r.name + " window " +
                           std::to_string(r.window) +
                           " recorded without samples"});
      } else if (r.p50 > r.p90 || r.p90 > r.p99) {
        out.push_back({"timeseries-sane",
                       "histogram " + r.name + " window " +
                           std::to_string(r.window) +
                           " has non-monotone quantiles"});
      }
    }
  }
  for (const BreachRow& b : t.breaches) {
    if (b.rule.empty() || b.metric.empty()) {
      out.push_back({"timeseries-sane",
                     "breach at window " + std::to_string(b.window) +
                         " lacks a rule or metric"});
    }
  }
}

// Per MsgClass, the fabric outcome counters partition the observed
// wire ops exactly: wire_ops == delivered + multicasts + xfers + caw +
// dropped (see MetricsAggregator).
void msgclass_reconcile(const StateSnapshot& t, std::vector<Violation>& out) {
  std::map<std::string, std::int64_t> counters;
  for (const MetricRow& m : t.metrics) {
    if (m.kind == "counter") counters[m.name] = m.count;
  }
  const auto get = [&](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  for (int c = 0; c < fabric::kMsgClassCount; ++c) {
    const std::string base =
        "fabric." +
        std::string(fabric::to_string(static_cast<fabric::MsgClass>(c))) +
        ".";
    const auto it = counters.find(base + "wire_ops");
    if (it == counters.end()) continue;  // class saw no traffic
    const std::int64_t wire = it->second;
    const std::int64_t outcomes = get(base + "delivered") +
                                  get(base + "multicasts") +
                                  get(base + "xfers") + get(base + "caw") +
                                  get(base + "dropped");
    if (wire != outcomes) {
      out.push_back({"msgclass-reconcile",
                     base + "wire_ops is " + std::to_string(wire) +
                         " but delivered+multicasts+xfers+caw+dropped is " +
                         std::to_string(outcomes)});
    }
  }
}

// At most one replica calls itself leader in any term: the lease rules
// (a grant is withheld until the granter's old lease has provably
// expired, and repl_election_base > repl_lease) make two same-term
// leaders impossible by construction; this checks the construction.
// Empty `replicas` table (replication disabled) trivially holds.
void at_most_one_leader_per_term(const StateSnapshot& t,
                                 std::vector<Violation>& out) {
  std::map<std::int64_t, std::int64_t> leaders;  // term -> claimants
  for (const ReplicaRow& r : t.replicas) {
    if (r.role == "leader") ++leaders[r.term];
  }
  for (const auto& [term, count] : leaders) {
    if (count > 1) {
      out.push_back({"at-most-one-leader-per-term",
                     std::to_string(count) + " replicas claim leadership of term " +
                         std::to_string(term)});
    }
  }
}

// Every replica's state machine agrees on the committed prefix: at the
// group-wide commit floor, all rolling digests are identical. A
// divergence means two replicas applied different entries at the same
// index — the one thing a replicated log must never do.
void committed_prefix_agreement(const StateSnapshot& t,
                                std::vector<Violation>& out) {
  const std::vector<ReplicaRow>& reps = t.replicas;
  if (reps.size() < 2) return;
  const ReplicaRow& ref = reps.front();
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].floor_index != ref.floor_index) {
      out.push_back({"committed-prefix-agreement",
                     "replica " + std::to_string(reps[i].rank) +
                         " reports commit floor " +
                         std::to_string(reps[i].floor_index) +
                         " but replica " + std::to_string(ref.rank) +
                         " reports " + std::to_string(ref.floor_index)});
      continue;
    }
    if (reps[i].floor_digest != ref.floor_digest) {
      out.push_back({"committed-prefix-agreement",
                     "replicas " + std::to_string(ref.rank) + " and " +
                         std::to_string(reps[i].rank) +
                         " disagree on the committed prefix at index " +
                         std::to_string(ref.floor_index)});
    }
  }
}

}  // namespace

const std::vector<Invariant>& invariant_registry() {
  static const std::vector<Invariant> registry = {
      {"slot-owner-live",
       "every occupied matrix cell belongs to a live, placed incarnation",
       slot_owner_live},
      {"placement-allocation-agree",
       "job-recorded allocations match matrix placements",
       placement_allocation_agree},
      {"live-allocations-disjoint",
       "no two live incarnations share a matrix slot",
       live_allocations_disjoint},
      {"failed-node-pl-idle",
       "a plane-failed node has zero PL occupancy", failed_node_pl_idle},
      {"evicted-node-unused",
       "an evicted node owns no matrix cells and no live placement",
       evicted_node_unused},
      {"heartbeat-fresh",
       "clean nodes' heartbeat words track the MM epoch within the slack",
       heartbeat_fresh},
      {"queue-accounting",
       "MM queue length and completion count match the job table",
       queue_accounting},
      {"job-lifecycle",
       "job timestamps are monotone and restart budgets are honoured",
       job_lifecycle},
      {"metrics-sane", "counters and histograms are internally consistent",
       metrics_sane},
      {"msgclass-reconcile",
       "per-class fabric outcome counters partition the wire ops",
       msgclass_reconcile},
      {"at-most-one-leader-per-term",
       "no two replicas claim leadership of the same term",
       at_most_one_leader_per_term},
      {"committed-prefix-agreement",
       "all replicas' state machines agree at the group commit floor",
       committed_prefix_agreement},
      {"timeseries-sane",
       "recorded windows have positive spans, non-negative deltas, and "
       "monotone quantiles",
       timeseries_sane},
  };
  return registry;
}

InvariantReport check_invariants(const StateSnapshot& s) {
  InvariantReport report;
  for (const Invariant& inv : invariant_registry()) {
    inv.check(s, report.violations);
    ++report.invariants_run;
  }
  return report;
}

InvariantReport check_invariants(core::Cluster& cluster) {
  return check_invariants(capture(cluster, Capture::NoSpans));
}

std::string InvariantReport::summary() const {
  if (ok()) {
    return "ok (" + std::to_string(invariants_run) + " invariants)";
  }
  std::string out;
  for (const Violation& v : violations) {
    out += v.invariant + ": " + v.detail + "\n";
  }
  return out;
}

// --- InvariantProbe --------------------------------------------------------

struct InvariantProbe::State {
  core::Cluster* cluster;
  sim::SimTime period;
  bool armed = false;
  std::int64_t checks = 0;
  std::vector<Violation> violations;
};

InvariantProbe::InvariantProbe(core::Cluster& cluster, sim::SimTime period)
    : state_(std::make_shared<State>()) {
  state_->cluster = &cluster;
  state_->period = period;
}

InvariantProbe::~InvariantProbe() { disarm(); }

void InvariantProbe::schedule(const std::shared_ptr<State>& st) {
  st->cluster->sim().schedule_after(st->period, [st] {
    if (!st->armed) return;
    const InvariantReport report = check_invariants(*st->cluster);
    ++st->checks;
    for (const Violation& v : report.violations) {
      if (st->violations.size() >= kMaxViolations) break;
      st->violations.push_back(v);
    }
    schedule(st);
  });
}

void InvariantProbe::arm() {
  if (state_->armed) return;
  state_->armed = true;
  schedule(state_);
}

void InvariantProbe::disarm() { state_->armed = false; }

std::int64_t InvariantProbe::checks() const { return state_->checks; }

const std::vector<Violation>& InvariantProbe::violations() const {
  return state_->violations;
}

}  // namespace storm::query
