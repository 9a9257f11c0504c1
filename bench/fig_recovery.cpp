// Failure-recovery experiment: a deterministic fault campaign over a
// gang-scheduled workload — node crash mid-launch, primary-MM crash
// mid-run, a seeded crash/recover schedule plus a network partition —
// measuring detection latency, kill/requeue counts and the
// requeue-to-running recovery latency, and verifying that two
// same-seed campaigns are byte-identical end to end.
//
// The paper (Section 4) measures STORM's heartbeat *detection* cost;
// this harness exercises the recovery policy built on top of it: the
// MM evicts dead nodes from the buddy trees, kills and requeues the
// jobs spanning them, shrinks in-flight multicast sets, and a hot
// standby adopts the machine when the primary itself dies.
#include <optional>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bench/harness.hpp"
#include "fabric/fault_campaign.hpp"
#include "fabric/trace_replay.hpp"
#include "fabric/trace_sink.hpp"
#include "query/invariants.hpp"
#include "sim/stats.hpp"
#include "storm/cluster.hpp"
#include "storm/machine_manager.hpp"

namespace {

using namespace storm;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;
using sim::SimTime;
using sim::Task;

core::AppProgram compute_program(SimTime work) {
  return
      [work](core::AppContext& ctx) -> Task<> { co_await ctx.compute(work); };
}

enum class Scenario {
  NodeCrashMidLaunch,
  MmCrashMidRun,
  SeededCampaign,
  ReplLeaderCrash,  // quorum MMs; leader dæmon dies mid-run
  ReplSplitBrain,   // one-way partition starves the leader of acks
};

const char* name_of(Scenario s) {
  switch (s) {
    case Scenario::NodeCrashMidLaunch: return "node-launch";
    case Scenario::MmCrashMidRun: return "mm-run";
    case Scenario::SeededCampaign: return "seed+part";
    case Scenario::ReplLeaderCrash: return "repl-crash";
    case Scenario::ReplSplitBrain: return "repl-split";
  }
  return "?";
}

bool replicated(Scenario s) {
  return s == Scenario::ReplLeaderCrash || s == Scenario::ReplSplitBrain;
}

struct RunResult {
  std::vector<std::uint8_t> trace;
  std::vector<SimTime> finished;
  int completed = 0;
  int aborted = 0;
  std::int64_t kills = 0;
  std::int64_t requeues = 0;
  std::int64_t failovers = 0;
  double detect_ms = 0;        // node-death detection latency (mean)
  double fo_gap_ms = 0;        // MM silence gap at failover
  double fo_resume_ms = 0;     // takeover -> scheduling resumed
  double requeue_run_ms = 0;   // kill -> replacement incarnation on CPUs
  std::int64_t elections = 0;      // quorum scenarios: term bumps won
  std::int64_t stale_aborts = 0;   // commits refused to a deposed leader
  bool all_done = false;
  std::int64_t inv_checks = 0;  // --check-invariants probe firings
  std::vector<storm::query::Violation> inv_violations;
};

core::ClusterConfig recovery_config(bool repl) {
  core::ClusterConfig cfg = core::ClusterConfig::es40(16);
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;  // 50 ms heartbeat
  if (repl) {
    cfg.storm.replication_enabled = true;  // quorum MMs on 0, 14, 15
  } else {
    cfg.storm.standby_mm_enabled = true;  // standby on node 15
  }
  return cfg;
}

// The workload: one big launch (the mid-transfer victim) plus a mix
// of smaller gangs. Shared between the campaign runs and the replay
// phase, which must submit the byte-identical workload.
std::vector<core::JobId> submit_workload(core::Cluster& cluster, bool fast) {
  const double w = fast ? 0.4 : 1.0;
  std::vector<core::JobId> jobs;
  jobs.push_back(cluster.submit({.name = "big",
                                 .binary_size = 12_MB,
                                 .npes = 32,  // nodes 0-7
                                 .program = compute_program(2_sec * w)}));
  jobs.push_back(cluster.submit({.name = "mid",
                                 .binary_size = 4_MB,
                                 .npes = 16,
                                 .program = compute_program(1500_ms * w)}));
  jobs.push_back(cluster.submit({.name = "small",
                                 .binary_size = 2_MB,
                                 .npes = 8,
                                 .program = compute_program(1_sec * w)}));
  jobs.push_back(cluster.submit({.name = "tiny",
                                 .binary_size = 1_MB,
                                 .npes = 4,
                                 .program = compute_program(500_ms * w)}));
  return jobs;
}

RunResult run_campaign(storm::bench::Harness& h, Scenario scenario,
                       std::uint64_t seed) {
  const bool check_inv = h.has("--check-invariants");
  sim::Simulator sim(seed);
  const core::ClusterConfig cfg = recovery_config(replicated(scenario));
  core::Cluster cluster(sim, cfg);
  // Fabric metrics give the msgclass-reconcile invariant something to
  // check, so --check-invariants always turns them on.
  if (check_inv) cluster.enable_fabric_metrics();
  h.attach(cluster);
  // Re-run the whole invariant registry at every recovery epoch (one
  // strobe quantum): the probe sees the cluster mid-crash, mid-requeue
  // and mid-rejoin, not just at the quiesced end state. Probe reads
  // are pure, so the byte-identity comparison below still holds with
  // the probe armed.
  std::optional<query::InvariantProbe> probe;
  if (check_inv) {
    probe.emplace(cluster, cfg.storm.quantum);
    probe->arm();
  }
  auto sink = std::make_shared<fabric::StructuredTraceSink>(sim);
  cluster.fabric().push(sink);

  // Node-death detection latency: crash instants are known to the
  // campaign, declaration instants come from the MM callback.
  sim::Series detect;
  std::vector<std::pair<int, SimTime>> crash_times;
  auto watch_failures = [&](core::MachineManager& mm) {
    mm.set_failure_callback([&](int n, SimTime when) {
      for (const auto& [node, at] : crash_times) {
        if (node == n) {
          detect.add((when - at).to_millis());
          return;
        }
      }
    });
  };
  watch_failures(cluster.mm_primary());
  if (cluster.mm_standby() != nullptr) watch_failures(*cluster.mm_standby());

  fabric::FaultCampaign campaign;
  switch (scenario) {
    case Scenario::NodeCrashMidLaunch:
      // The 12 MB transfer to job a's 8-node allocation (nodes 0-7)
      // takes ~100 ms; kill one destination while chunks are in
      // flight, bring it back later.
      campaign.crash_node(5, 60_ms);
      campaign.recover_node(5, 2500_ms);
      break;
    case Scenario::MmCrashMidRun:
      campaign.crash_primary_mm(500_ms);
      break;
    case Scenario::SeededCampaign: {
      fabric::FaultCampaign::SeedSpec spec;
      spec.nodes = 16;
      spec.crashes = 2;
      spec.window_start = 300_ms;
      spec.window_end = 1500_ms;
      spec.min_downtime = 500_ms;
      spec.max_downtime = 1200_ms;
      spec.protect = {0, 15};  // both MMs
      campaign = fabric::FaultCampaign::seeded(sim::Rng(seed ^ 0xFA17), spec);
      // Plus a switch failure: nodes 8-11 unreachable for 600 ms.
      campaign.partition({8, 9, 10, 11}, 2200_ms, 2800_ms);
      break;
    }
    case Scenario::ReplLeaderCrash:
      campaign.crash_primary_mm(500_ms);
      break;
    case Scenario::ReplSplitBrain:
      // One-way failure: the followers' acks and votes toward the
      // leader are dropped while the leader's own appends still
      // arrive. The lease must expire, the majority side must elect,
      // and the starved old leader must commit nothing more.
      campaign.asym_partition({14, 15}, {0}, 500_ms, 1200_ms,
                              {fabric::MsgClass::Repl});
      break;
  }
  fabric::CampaignHooks hooks;
  hooks.crash_node = [&](int n) {
    crash_times.emplace_back(n, sim.now());
    cluster.crash_node(n);
  };
  hooks.recover_node = [&](int n) { cluster.recover_node(n); };
  hooks.crash_primary_mm = [&] { cluster.crash_mm(); };
  campaign.arm(sim, &cluster.fabric(), std::move(hooks));

  const std::vector<core::JobId> jobs = submit_workload(cluster, h.fast());

  RunResult r;
  r.all_done = cluster.run_until_all_complete(600_sec);
  for (const core::JobId id : jobs) {
    const core::JobState st = cluster.job(id).state();
    if (st == core::JobState::Completed) ++r.completed;
    if (st == core::JobState::Aborted) ++r.aborted;
    r.finished.push_back(cluster.job(id).times().finished);
  }
  const telemetry::MetricsRegistry& m = cluster.metrics();
  auto cval = [&](const char* n) {
    const telemetry::Counter* c = m.find_counter(n);
    return c ? c->value() : 0;
  };
  auto hmean_ms = [&](const char* n) {
    const telemetry::Histogram* hist = m.find_histogram(n);
    return hist != nullptr && hist->count() > 0 ? hist->mean() * 1e-6 : 0.0;
  };
  r.kills = cval("mm.recovery.kills");
  r.requeues = cval("mm.recovery.requeues");
  r.failovers = cval("mm.failover.count");
  r.detect_ms = detect.count() > 0 ? detect.mean() : 0.0;
  r.fo_gap_ms = hmean_ms("mm.failover.gap_ns");
  r.fo_resume_ms = hmean_ms("mm.failover.resume_ns");
  r.requeue_run_ms = hmean_ms("mm.recovery.requeue_to_run_ns");
  if (const core::ReplicationGroup* g = cluster.replication(); g != nullptr) {
    r.elections = g->elections();
    r.stale_aborts = g->stale_aborts();
  }
  r.trace = sink->bytes();
  h.capture(cluster);
  if (probe.has_value()) {
    probe->disarm();
    r.inv_checks = probe->checks();
    r.inv_violations = probe->violations();
    // Plus a final check of the quiesced end state.
    const query::InvariantReport final_report = query::check_invariants(cluster);
    ++r.inv_checks;
    r.inv_violations.insert(r.inv_violations.end(),
                            final_report.violations.begin(),
                            final_report.violations.end());
  }
  return r;
}

/// Replay round trip: feed a recorded run's sink stream back through
/// TraceReplayer, re-arm the reconstructed fault schedule on a fresh
/// same-seed cluster (with the lockstep replay rule ahead of the new
/// sink), and require the replay's sink stream to be byte-identical to
/// the recording.
bool replay_reproduces(const std::vector<std::uint8_t>& recorded,
                       std::uint64_t seed, bool fast) {
  std::string error;
  const std::optional<fabric::TraceReplayer> replayer =
      fabric::TraceReplayer::from_bytes(recorded, &error);
  if (!replayer) {
    std::fprintf(stderr, "replay: recorded stream rejected: %s\n",
                 error.c_str());
    return false;
  }

  sim::Simulator sim(seed);
  core::Cluster cluster(sim, recovery_config(/*repl=*/false));
  auto plan = std::make_shared<fabric::FaultPlan>(sim);
  const std::size_t replay =
      plan->add(fabric::FaultRule::replay(replayer->records()));
  cluster.fabric().push(plan);
  auto sink = std::make_shared<fabric::StructuredTraceSink>(sim);
  cluster.fabric().push(sink);

  fabric::FaultCampaign campaign = replayer->campaign();
  fabric::CampaignHooks hooks;
  hooks.crash_node = [&](int n) { cluster.crash_node(n); };
  hooks.recover_node = [&](int n) { cluster.recover_node(n); };
  hooks.crash_primary_mm = [&] { cluster.crash_mm(); };
  campaign.arm(sim, &cluster.fabric(), std::move(hooks));

  submit_workload(cluster, fast);
  const bool done = cluster.run_until_all_complete(600_sec);
  const bool identical = sink->bytes() == recorded;
  const fabric::FaultRule& drops = plan->rule(replay);
  std::printf("\nreplay: %zu recorded ops, %zu replayed, %zu mismatches -> "
              "%s\n",
              replayer->records().size(), drops.position(),
              drops.mismatches(), identical ? "byte-identical" : "DIVERGED");
  return done && identical && drops.mismatches() == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using storm::bench::Flag;
  storm::bench::Harness h(argc, argv, "fig_recovery",
                          {{"--check-invariants"},
                           {"--max-failover-gap-ms", Flag::Arg::Number}});
  const bool check_inv = h.has("--check-invariants");

  storm::bench::banner(
      "Recovery — fault campaign over a gang-scheduled workload",
      "detection latency (Section 4) + kill/requeue recovery, MM "
      "failover, same-seed byte-identical campaigns, and trace replay");

  storm::bench::Table t({"scenario", "done", "abort", "kills", "requeue",
                         "failover", "detect_ms", "fo_gap_ms", "rq_run_ms",
                         "identical"},
                        11);
  t.print_header();

  bool all_ok = true;
  double standby_gap_ms = 0, standby_resume_ms = 0;  // hot-standby takeover
  double repl_gap_ms = 0, repl_resume_ms = 0;        // quorum-lease takeover
  std::vector<std::uint8_t> recorded;  // replay input (node-crash run)
  for (const Scenario s : {Scenario::NodeCrashMidLaunch,
                           Scenario::MmCrashMidRun,
                           Scenario::SeededCampaign,
                           Scenario::ReplLeaderCrash,
                           Scenario::ReplSplitBrain}) {
    const std::uint64_t seed = 0x57'04'2002ULL;
    const RunResult a = run_campaign(h, s, seed);
    const RunResult b = run_campaign(h, s, seed);
    const bool identical = !a.trace.empty() && a.trace == b.trace &&
                           a.finished == b.finished;
    all_ok = all_ok && a.all_done && identical && a.aborted == 0;
    if (s == Scenario::NodeCrashMidLaunch) recorded = a.trace;
    if (s == Scenario::MmCrashMidRun) {
      standby_gap_ms = a.fo_gap_ms;
      standby_resume_ms = a.fo_resume_ms;
    }
    if (s == Scenario::ReplLeaderCrash) {
      repl_gap_ms = a.fo_gap_ms;
      repl_resume_ms = a.fo_resume_ms;
    }
    if (replicated(s)) {
      // Every quorum scenario must actually fail over (one election or
      // more), and the split-brain run must refuse at least the
      // starved leader's doomed commits or elections from stale logs.
      all_ok = all_ok && a.failovers >= 1 && a.elections >= 1;
    }
    if (check_inv) {
      std::fprintf(stderr, "invariants[%s]: %lld checks, %zu violations\n",
                   name_of(s), static_cast<long long>(a.inv_checks),
                   a.inv_violations.size());
      for (const auto& v : a.inv_violations) {
        std::fprintf(stderr, "  VIOLATION %s: %s\n", v.invariant.c_str(),
                     v.detail.c_str());
      }
      all_ok = all_ok && a.inv_violations.empty() && a.inv_checks > 1 &&
               b.inv_violations.empty();
    }
    t.cell(name_of(s));
    t.cell(a.completed);
    t.cell(a.aborted);
    t.cell(static_cast<long long>(a.kills));
    t.cell(static_cast<long long>(a.requeues));
    t.cell(static_cast<long long>(a.failovers));
    t.cell(a.detect_ms);
    t.cell(a.fo_gap_ms);
    t.cell(a.requeue_run_ms);
    t.cell(identical ? "yes" : "NO");
    t.end_row();
  }

  std::printf(
      "\n(detect_ms: node-death declaration latency; fo_gap_ms: primary\n"
      " silence at standby takeover; rq_run_ms: kill -> replacement\n"
      " incarnation running; identical: two same-seed campaigns produced\n"
      " byte-identical fabric traces and finish times)\n");

  // The headline robustness comparison: the same leader-death instant
  // handled by silence-counting hot standby vs the quorum lease. The
  // lease bounds detection at repl_lease + one election stagger, so
  // the gap must come in well under the heartbeat-counting scheme.
  std::printf(
      "\nfailover gap: hot-standby %.1f ms vs quorum-lease %.1f ms "
      "(%.1fx)\nfailover resume: hot-standby %.1f ms vs quorum-lease "
      "%.1f ms\n",
      standby_gap_ms, repl_gap_ms,
      repl_gap_ms > 0 ? standby_gap_ms / repl_gap_ms : 0.0,
      standby_resume_ms, repl_resume_ms);
  h.value("mm.failover.gap_ns.standby", standby_gap_ms * 1e6);
  h.value("mm.failover.resume_ns.standby", standby_resume_ms * 1e6);
  h.value("mm.failover.gap_ns.repl", repl_gap_ms * 1e6);
  h.value("mm.failover.resume_ns.repl", repl_resume_ms * 1e6);
  all_ok = all_ok && standby_gap_ms > 0 && repl_gap_ms > 0 &&
           repl_gap_ms < standby_gap_ms;

  // `--max-failover-gap-ms <ms>`: CI budget on the quorum-lease gap.
  const double max_gap_ms = h.number("--max-failover-gap-ms");
  bool budget_breach = false;
  if (max_gap_ms > 0 && (repl_gap_ms <= 0 || repl_gap_ms > max_gap_ms)) {
    std::fprintf(stderr, "FAIL: quorum failover gap %.1f ms > budget %.1f ms\n",
                 repl_gap_ms, max_gap_ms);
    budget_breach = true;
  }

  // Phase 4: the recorded node-crash run replays from its own sink
  // stream alone — schedule reconstruction via the Fault notes.
  const bool replay_ok =
      replay_reproduces(recorded, 0x57'04'2002ULL, h.fast());
  all_ok = all_ok && replay_ok;

  const int rc = h.finish();
  if (!all_ok) {
    std::fprintf(stderr,
                 "FAIL: a campaign left work unfinished, aborted a job, "
                 "diverged between same-seed runs, violated an invariant, "
                 "or failed to replay\n");
    return 1;
  }
  return budget_breach ? 1 : rc;
}
