// The invariant registry: clean runs (small, fault campaign, 16k-node
// plane mode) pass; a deliberately corrupted snapshot makes each of
// the thirteen invariants fire — proving every check has teeth.
//
// Corruptions are synthetic StateSnapshots with hand-written rows —
// the cluster proper has no mutators that can produce these states,
// which is the point.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "query/invariants.hpp"
#include "sim/simulator.hpp"
#include "storm/cluster.hpp"

namespace storm::query {
namespace {

using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;
using sim::SimTime;
using sim::Task;

core::AppProgram compute_program(SimTime work) {
  return [work](core::AppContext& ctx) -> Task<> {
    co_await ctx.compute(work);
  };
}

// --- synthetic-snapshot helpers -------------------------------------------

StateSnapshot synth() {
  StateSnapshot t;
  t.meta.nodes = 8;
  t.meta.pls_per_node = 8;
  t.meta.scheduler = "gang";
  t.meta.max_job_restarts = 2;
  t.meta.matrix_rows = 2;
  return t;
}

JobRow running_job(core::JobId id, int row, int first, int count) {
  JobRow j;
  j.id = id;
  j.name = "j" + std::to_string(id);
  j.state = core::JobState::Running;
  j.row = row;
  j.first_node = first;
  j.node_count = count;
  j.placed = true;
  j.placement_row = row;
  j.placement_first = first;
  j.placement_count = count;
  return j;
}

/// check_invariants(t) must fail, and every violation must come from
/// the one expected invariant (no collateral damage from the
/// corruption leaking into other checks).
void expect_only(const StateSnapshot& t, const std::string& name,
                 std::size_t at_least = 1) {
  const InvariantReport report = check_invariants(t);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.violations.size(), at_least) << report.summary();
  for (const Violation& v : report.violations) {
    EXPECT_EQ(v.invariant, name) << v.detail;
  }
}

TEST(Invariants, CleanSyntheticSnapshotPasses) {
  const StateSnapshot t = synth();
  const InvariantReport report = check_invariants(t);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.invariants_run, 13);
  EXPECT_EQ(report.summary(), "ok (13 invariants)");
}

// --- one corruption per invariant -----------------------------------------

TEST(Invariants, SlotOwnerLiveFires) {
  // (a) a cell owned by a job nobody knows.
  StateSnapshot t = synth();
  t.matrix_slots = {{0, 3, 7}};
  expect_only(t, "slot-owner-live");

  // (b) a cell owned by a terminal job.
  t = synth();
  JobRow done = running_job(1, 0, 2, 2);
  done.state = core::JobState::Completed;
  done.placed = false;
  t.meta.completed = 1;
  t.jobs = {done};
  t.matrix_slots = {{0, 2, 1}};
  expect_only(t, "slot-owner-live");

  // (c) a cell outside its owner's recorded placement.
  t = synth();
  t.jobs = {running_job(1, 0, 0, 2)};
  t.matrix_slots = {{0, 0, 1}, {0, 1, 1}, {0, 5, 1}};
  expect_only(t, "slot-owner-live");
}

TEST(Invariants, PlacementAllocationAgreeFires) {
  // (a) job record and matrix placement diverge.
  StateSnapshot t = synth();
  JobRow skewed = running_job(1, 0, 0, 4);
  skewed.placement_first = 2;  // matrix says nodes 2+4, job says 0+4
  t.jobs = {skewed};
  expect_only(t, "placement-allocation-agree");

  // (b) gang scheduling: a resource-owning job with no placement.
  t = synth();
  JobRow floating = running_job(2, 0, 0, 4);
  floating.placed = false;
  t.jobs = {floating};
  expect_only(t, "placement-allocation-agree");

  // (b') ...which the locally-scheduled foils are allowed to do.
  t.meta.scheduler = "local-os";
  EXPECT_TRUE(check_invariants(t).ok());
}

TEST(Invariants, LiveAllocationsDisjointFires) {
  StateSnapshot t = synth();
  t.jobs = {running_job(1, 0, 0, 4), running_job(2, 0, 2, 4)};
  expect_only(t, "live-allocations-disjoint");

  // Different rows: timesharing the same nodes is legal.
  t.jobs = {running_job(1, 0, 0, 4), running_job(2, 1, 2, 4)};
  EXPECT_TRUE(check_invariants(t).ok());

  // The uncoordinated foils share nodes by design.
  t.jobs = {running_job(1, 0, 0, 4), running_job(2, 0, 2, 4)};
  t.meta.scheduler = "implicit-cosched";
  EXPECT_TRUE(check_invariants(t).ok());
}

TEST(Invariants, FailedNodePlIdleFires) {
  StateSnapshot t = synth();
  NodeRow dead;
  dead.node = 3;
  dead.failed = true;
  dead.pl_mask = 0b101;
  dead.pl_busy = 2;
  t.nodes = {dead};
  expect_only(t, "failed-node-pl-idle");
}

TEST(Invariants, EvictedNodeUnusedFires) {
  // (a) an evicted node still owning matrix cells.
  StateSnapshot t = synth();
  NodeRow gone;
  gone.node = 1;
  gone.evicted = true;
  gone.matrix_cells = 2;
  t.nodes = {gone};
  expect_only(t, "evicted-node-unused");

  // (b) a live placement spanning an evicted node.
  t = synth();
  gone.matrix_cells = 0;
  t.nodes = {gone};
  t.jobs = {running_job(1, 0, 0, 4)};  // spans node 1
  expect_only(t, "evicted-node-unused");
}

TEST(Invariants, HeartbeatFreshFires) {
  StateSnapshot t = synth();
  t.meta.heartbeat_enabled = true;
  t.meta.heartbeat_miss_periods = 2;  // slack = 3
  t.meta.hb_epoch = 20;
  NodeRow fresh;      // within slack: fine
  fresh.node = 0;
  fresh.heartbeat = 19;
  NodeRow stale;      // lags by 10 > 3 and was never declared dead
  stale.node = 1;
  stale.heartbeat = 10;
  NodeRow unjoined;   // word 0: not in the protocol yet, skipped
  unjoined.node = 2;
  NodeRow declared;   // suspect: skipped (the failure path covers it)
  declared.node = 3;
  declared.heartbeat = 1;
  declared.mm_failed = true;
  t.nodes = {fresh, stale, unjoined, declared};
  const InvariantReport report = check_invariants(t);
  ASSERT_EQ(report.violations.size(), 1u) << report.summary();
  EXPECT_EQ(report.violations[0].invariant, "heartbeat-fresh");
  EXPECT_NE(report.violations[0].detail.find("node 1"), std::string::npos);
}

TEST(Invariants, QueueAccountingFires) {
  StateSnapshot t = synth();
  JobRow queued;
  queued.id = 1;
  queued.name = "q";
  JobRow done;
  done.id = 2;
  done.name = "d";
  done.state = core::JobState::Completed;
  t.jobs = {queued, done};
  t.meta.queued = 2;     // MM thinks two queued; table holds one
  t.meta.completed = 0;  // MM missed the completion
  expect_only(t, "queue-accounting", 2);

  // After a failover the completed counter is rebuilt from scratch and
  // exempt; the queue-length check still applies.
  t.meta.standby_active = true;
  expect_only(t, "queue-accounting", 1);
}

TEST(Invariants, JobLifecycleFires) {
  // (a) restart budget blown (cap is max_job_restarts + 1 = 3).
  StateSnapshot t = synth();
  JobRow churner;
  churner.id = 1;
  churner.name = "churner";
  churner.state = core::JobState::Aborted;  // killed for good
  churner.restarts = 4;
  t.meta.completed = 1;
  t.jobs = {churner};
  expect_only(t, "job-lifecycle");

  // (b) non-monotone lifecycle timestamps on a completed job.
  t = synth();
  JobRow warped;
  warped.id = 2;
  warped.name = "warped";
  warped.state = core::JobState::Completed;
  warped.submit_ns = 100;
  warped.transfer_start_ns = 50;    // precedes submit
  warped.first_proc_started_ns = 100;
  warped.last_proc_exited_ns = 50;  // exit precedes start
  t.meta.completed = 1;
  t.jobs = {warped};
  expect_only(t, "job-lifecycle", 2);
}

TEST(Invariants, MetricsSaneFires) {
  StateSnapshot t = synth();
  MetricRow neg{.name = "bad.counter", .kind = "counter", .count = -1};
  MetricRow inverted{.name = "bad.hist1", .kind = "histogram",
                     .count = 3, .sum = 9, .min = 5, .max = 2};
  MetricRow impossible{.name = "bad.hist2", .kind = "histogram",
                       .count = 2, .sum = 100, .min = 1, .max = 10};
  t.metrics = {neg, inverted, impossible};
  expect_only(t, "metrics-sane", 3);
}

TEST(Invariants, MsgClassReconcileFires) {
  StateSnapshot t = synth();
  MetricRow wire{.name = "fabric.launch.wire_ops", .kind = "counter",
                 .count = 10};
  MetricRow delivered{.name = "fabric.launch.delivered", .kind = "counter",
                      .count = 4};  // 6 wire ops unaccounted for
  t.metrics = {wire, delivered};
  expect_only(t, "msgclass-reconcile");
}

ReplicaRow replica(int rank, const std::string& role, std::int64_t term,
                   std::int64_t commit, std::int64_t floor_index,
                   std::uint64_t floor_digest) {
  ReplicaRow r;
  r.rank = rank;
  r.node = rank == 0 ? 0 : 16 - 3 + rank;
  r.role = role;
  r.term = term;
  r.commit = commit;
  r.applied = commit;
  r.log_size = commit;
  r.floor_index = floor_index;
  r.floor_digest = floor_digest;
  return r;
}

TEST(Invariants, AtMostOneLeaderPerTermFires) {
  // Split brain as the query layer would see it: two replicas both
  // claiming term 3.
  StateSnapshot t = synth();
  t.replicas = {replica(0, "leader", 3, 5, 4, 0xAB),
                replica(1, "leader", 3, 5, 4, 0xAB),
                replica(2, "follower", 3, 4, 4, 0xAB)};
  expect_only(t, "at-most-one-leader-per-term");

  // Leaders of *different* terms can transiently coexist in a sample
  // (the old one has not heard of its deposition yet): legal.
  t.replicas = {replica(0, "leader", 2, 5, 4, 0xAB),
                replica(1, "leader", 3, 5, 4, 0xAB),
                replica(2, "follower", 3, 4, 4, 0xAB)};
  EXPECT_TRUE(check_invariants(t).ok());
}

TEST(Invariants, CommittedPrefixAgreementFires) {
  // (a) same floor, different digests: the logs diverged inside the
  // committed prefix.
  StateSnapshot t = synth();
  t.replicas = {replica(0, "leader", 2, 6, 4, 0xAB),
                replica(1, "follower", 2, 4, 4, 0xCD),
                replica(2, "follower", 2, 5, 4, 0xAB)};
  expect_only(t, "committed-prefix-agreement");

  // (b) replicas reporting different floors: the sample itself is
  // inconsistent.
  t.replicas = {replica(0, "leader", 2, 6, 4, 0xAB),
                replica(1, "follower", 2, 4, 3, 0xAB)};
  expect_only(t, "committed-prefix-agreement");

  // Agreement passes.
  t.replicas = {replica(0, "leader", 2, 6, 4, 0xAB),
                replica(1, "follower", 2, 4, 4, 0xAB),
                replica(2, "follower", 2, 5, 4, 0xAB)};
  EXPECT_TRUE(check_invariants(t).ok());
}

TEST(Invariants, TimeseriesSaneFires) {
  // (a) a window whose end precedes its start.
  StateSnapshot t = synth();
  SeriesPointRow bad;
  bad.window = 3;
  bad.t_start_ns = 40'000'000;
  bad.t_end_ns = 30'000'000;
  bad.name = "fabric.strobe.delivered";
  bad.kind = "counter";
  bad.delta = 5;
  t.timeseries = {bad};
  expect_only(t, "timeseries-sane");

  // (b) a counter that ran backwards.
  bad.t_end_ns = 50'000'000;
  bad.delta = -1;
  t.timeseries = {bad};
  expect_only(t, "timeseries-sane");

  // (c) a histogram window with non-monotone quantiles.
  SeriesPointRow h;
  h.window = 0;
  h.t_start_ns = 0;
  h.t_end_ns = 10'000'000;
  h.name = "fabric.latency.strobe";
  h.kind = "histogram";
  h.count = 4;
  h.sum = 100;
  h.p50 = 96.0;
  h.p90 = 24.0;
  h.p99 = 96.0;
  t = synth();
  t.timeseries = {h};
  expect_only(t, "timeseries-sane");

  // (d) rows out of time-major order.
  SeriesPointRow a = bad;
  a.delta = 1;
  SeriesPointRow b = a;
  b.window = 2;
  b.t_start_ns = 20'000'000;
  b.t_end_ns = 30'000'000;
  t = synth();
  t.timeseries = {a, b};
  expect_only(t, "timeseries-sane");

  // (e) a breach with no rule.
  t = synth();
  t.breaches = {{"", "x", 0, 0, 1.0, 2.0}};
  expect_only(t, "timeseries-sane");

  // A well-formed point passes.
  t = synth();
  a.window = 1;
  a.t_start_ns = 10'000'000;
  a.t_end_ns = 20'000'000;
  t.timeseries = {a, b};
  EXPECT_TRUE(check_invariants(t).ok());
}

// --- clean live runs -------------------------------------------------------

TEST(Invariants, CleanRunPasses) {
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(16);
  cfg.storm.quantum = 10_ms;
  core::Cluster cluster(sim, cfg);
  cluster.enable_fabric_metrics();
  cluster.submit({.name = "a", .binary_size = 1_MB, .npes = 16,
                  .program = compute_program(200_ms)});
  cluster.submit({.name = "b", .binary_size = 1_MB, .npes = 32,
                  .program = compute_program(100_ms)});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
  const InvariantReport report = check_invariants(cluster);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Invariants, ClusterCheckSkipsSpansWithSameReport) {
  // check_invariants(cluster) captures without the spans table; on a
  // traced cluster, mid-run, it must report exactly what a check of
  // the full capture reports.
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(16);
  cfg.storm.quantum = 2_ms;
  core::Cluster cluster(sim, cfg);
  cluster.enable_fabric_metrics();
  cluster.enable_tracing();
  cluster.submit({.name = "a", .binary_size = 4_MB, .npes = 32,
                  .program = compute_program(200_ms)});
  cluster.submit({.name = "b", .binary_size = 1_MB, .npes = 16,
                  .program = compute_program(100_ms)});
  for (const SimTime t : {30_ms, 150_ms, 2_sec}) {
    sim.run(t);
    const StateSnapshot full = capture(cluster);
    ASSERT_FALSE(full.spans.empty());
    EXPECT_TRUE(capture(cluster, Capture::NoSpans).spans.empty());
    const InvariantReport want = check_invariants(full);
    const InvariantReport got = check_invariants(cluster);
    EXPECT_EQ(got.invariants_run, want.invariants_run);
    EXPECT_EQ(got.summary(), want.summary());
  }
}

TEST(Invariants, ProbeHoldsAcrossFaultCampaign) {
  // fig_recovery in miniature: crash the victim's first node mid-run,
  // let the heartbeat declare it, requeue, rejoin — with the full
  // registry asserted every recovery epoch (one probe per quantum).
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(16);
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;
  core::Cluster cluster(sim, cfg);
  cluster.enable_fabric_metrics();
  const core::JobId id =
      cluster.submit({.name = "victim", .binary_size = 1_MB, .npes = 32,
                      .program = compute_program(2_sec)});

  InvariantProbe probe(cluster, 10_ms);
  probe.arm();
  sim.run(500_ms);
  ASSERT_EQ(cluster.job(id).state(), core::JobState::Running);
  // Crash inside the allocation, but never the MM's own node.
  const net::NodeRange alloc = cluster.job(id).nodes();
  const int victim = alloc.contains(0) ? alloc.last() : alloc.first;
  cluster.crash_node(victim);
  sim.run(1_sec);
  cluster.recover_node(victim);
  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));
  probe.disarm();

  EXPECT_GT(probe.checks(), 100);
  EXPECT_TRUE(probe.violations().empty())
      << probe.violations()[0].invariant << ": "
      << probe.violations()[0].detail;
  EXPECT_EQ(cluster.job(id).restarts(), 1);
  const InvariantReport final_report = check_invariants(cluster);
  EXPECT_TRUE(final_report.ok()) << final_report.summary();
}

TEST(Invariants, TerascalePlaneModePasses) {
  // The 16k-node acceptance run: plane-mode cluster, full launch of a
  // 12 MB binary on every node, invariants checked mid-flight and at
  // the end. The registry sees plane words, not NM/PL objects, and
  // must hold in both worlds.
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(16384);
  cfg.plane_mode = true;
  cfg.storm.quantum = 1_ms;
  core::Cluster cluster(sim, cfg);
  const core::JobId id = cluster.submit(
      {.name = "noop", .binary_size = 12_MB,
       .npes = 16384 * cfg.app_cpus_per_node});

  InvariantProbe probe(cluster, 100_ms);
  probe.arm();
  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));
  probe.disarm();

  EXPECT_GT(probe.checks(), 0);
  EXPECT_TRUE(probe.violations().empty())
      << probe.violations()[0].invariant << ": "
      << probe.violations()[0].detail;
  EXPECT_EQ(cluster.job(id).state(), core::JobState::Completed);
  const InvariantReport report = check_invariants(cluster);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(capture(cluster).meta.plane_mode);
}

}  // namespace
}  // namespace storm::query
