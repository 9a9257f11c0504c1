// End-to-end failure-lifecycle tests: heartbeat detection internals,
// kill-and-requeue recovery, mid-transfer crashes, node rejoin and
// hot-standby MM failover.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fabric/fault_plan.hpp"
#include "storm/cluster.hpp"
#include "storm/machine_manager.hpp"
#include "storm/node_manager.hpp"

namespace storm::core {
namespace {

using sim::SimTime;
using sim::Task;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

ClusterConfig recovery_config(int nodes) {
  ClusterConfig cfg = ClusterConfig::es40(nodes);
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;  // 50 ms heartbeat
  return cfg;
}

AppProgram compute_program(SimTime work) {
  return [work](AppContext& ctx) -> Task<> { co_await ctx.compute(work); };
}

std::int64_t counter_value(const Cluster& cluster, std::string_view name) {
  const telemetry::Counter* c = cluster.metrics().find_counter(name);
  return c ? c->value() : 0;
}

// --- detection path -------------------------------------------------------

TEST(Recovery, FailedNodesSortedAscending) {
  sim::Simulator sim;
  Cluster cluster(sim, recovery_config(16));
  sim.run(300_ms);
  cluster.crash_node(9);
  sim.run(600_ms);
  cluster.crash_node(3);
  sim.run(1500_ms);
  const std::vector<int> expect{3, 9};
  EXPECT_EQ(cluster.mm().failed_nodes(), expect)
      << "failure list must stay sorted regardless of detection order";
}

TEST(Recovery, RepeatedFailureIsIdempotent) {
  sim::Simulator sim;
  Cluster cluster(sim, recovery_config(8));
  int callbacks = 0;
  cluster.mm().set_failure_callback([&](int n, SimTime) {
    EXPECT_EQ(n, 5);
    ++callbacks;
  });
  cluster.crash_node(5);
  cluster.crash_node(5);  // second crash of a dead node: no-op
  sim.run(2_sec);         // many heartbeat rounds observe the same corpse
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(cluster.mm().failed_nodes(), std::vector<int>{5});
  EXPECT_EQ(counter_value(cluster, "mm.recovery.evictions"), 1);
}

TEST(Recovery, DroppedHeartbeatsStillFireCallback) {
  // The node is healthy, but every heartbeat *delivery* to it is lost:
  // from the MM's vantage point that is indistinguishable from death,
  // and the callback must fire all the same.
  sim::Simulator sim;
  Cluster cluster(sim, recovery_config(8));
  auto plan = std::make_shared<fabric::FaultPlan>(sim);
  plan->add(fabric::FaultRule::drop_next(fabric::MsgClass::Heartbeat,
                                         /*node=*/6, /*n=*/1000));
  cluster.fabric().push(plan);
  int failed_node = -1;
  cluster.mm().set_failure_callback(
      [&](int n, SimTime) { failed_node = n; });
  sim.run(2_sec);
  EXPECT_EQ(failed_node, 6);
  EXPECT_EQ(cluster.mm().failed_nodes(), std::vector<int>{6});
  EXPECT_GT(plan->rule(0).hits(), 0);
}

// --- kill-and-requeue ------------------------------------------------------

TEST(Recovery, CrashedNodeJobRequeuedAndCompletes) {
  sim::Simulator sim;
  Cluster cluster(sim, recovery_config(8));
  const JobId id = cluster.submit({.name = "victim",
                                   .binary_size = 1_MB,
                                   .npes = 16,  // 4 of 8 nodes
                                   .program = compute_program(2_sec)});
  sim.run(500_ms);
  ASSERT_EQ(cluster.job(id).state(), JobState::Running);
  // Crash a node inside the allocation (but never the MM's own node).
  const net::NodeRange alloc = cluster.job(id).nodes();
  const int victim = alloc.contains(0) ? alloc.last() : alloc.first;
  ASSERT_NE(victim, cluster.mm().node());
  cluster.crash_node(victim);

  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));
  EXPECT_EQ(cluster.job(id).state(), JobState::Completed);
  EXPECT_EQ(cluster.job(id).restarts(), 1);
  EXPECT_EQ(counter_value(cluster, "mm.recovery.kills"), 1);
  EXPECT_EQ(counter_value(cluster, "mm.recovery.requeues"), 1);
  EXPECT_EQ(counter_value(cluster, "mm.recovery.evictions"), 1);
  // The replacement incarnation avoided the dead node.
  EXPECT_FALSE(cluster.job(id).nodes().contains(victim));
  // Recovery latency (requeue -> running again) was measured.
  const telemetry::Histogram* lat =
      cluster.metrics().find_histogram("mm.recovery.requeue_to_run_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), 1);
}

TEST(Recovery, AbortPolicyMarksJobAborted) {
  sim::Simulator sim;
  ClusterConfig cfg = recovery_config(8);
  cfg.storm.failure_policy = FailurePolicy::Abort;
  Cluster cluster(sim, cfg);
  const JobId id = cluster.submit({.binary_size = 1_MB,
                                   .npes = 16,
                                   .program = compute_program(5_sec)});
  sim.run(500_ms);
  ASSERT_EQ(cluster.job(id).state(), JobState::Running);
  const net::NodeRange alloc = cluster.job(id).nodes();
  cluster.crash_node(alloc.contains(0) ? alloc.last() : alloc.first);
  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));
  EXPECT_EQ(cluster.job(id).state(), JobState::Aborted);
  EXPECT_EQ(counter_value(cluster, "mm.recovery.aborts"), 1);
  EXPECT_EQ(counter_value(cluster, "mm.recovery.requeues"), 0);
}

TEST(Recovery, RestartBudgetExhaustionAborts) {
  sim::Simulator sim;
  ClusterConfig cfg = recovery_config(8);
  cfg.storm.max_job_restarts = 1;
  Cluster cluster(sim, cfg);
  const JobId id = cluster.submit({.binary_size = 1_MB,
                                   .npes = 8,  // 2 nodes
                                   .program = compute_program(10_sec)});
  // Whack-a-mole: crash a node under the current incarnation, twice.
  // The second kill exceeds the budget.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 20000 && cluster.job(id).state() != JobState::Running;
         ++i) {
      if (!sim.step()) break;
    }
    ASSERT_EQ(cluster.job(id).state(), JobState::Running) << "round " << round;
    const net::NodeRange alloc = cluster.job(id).nodes();
    const int victim =
        alloc.contains(cluster.mm().node()) ? alloc.last() : alloc.first;
    ASSERT_NE(victim, cluster.mm().node());
    cluster.crash_node(victim);
    sim.run(sim.now() + 1_sec);
  }
  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));
  EXPECT_EQ(cluster.job(id).state(), JobState::Aborted);
  EXPECT_EQ(cluster.job(id).restarts(), 2);
  EXPECT_EQ(counter_value(cluster, "mm.recovery.requeues"), 1);
  EXPECT_EQ(counter_value(cluster, "mm.recovery.aborts"), 1);
}

TEST(Recovery, MidTransferCrashAbortsPipelineThenCompletes) {
  // Kill a destination node while its 12 MB image is still in flight:
  // the transfer pipeline must unwind (not wedge), and the requeued
  // incarnation must finish on the survivors.
  sim::Simulator sim;
  ClusterConfig cfg = recovery_config(8);
  cfg.storm.quantum = 5_ms;
  cfg.storm.heartbeat_period_quanta = 4;  // 20 ms heartbeat: fast declare
  Cluster cluster(sim, cfg);
  const JobId id = cluster.submit({.binary_size = 12_MB,
                                   .npes = 16,
                                   .program = compute_program(100_ms)});
  // A 12 MB transfer takes ~100 ms; crash mid-flight.
  for (int i = 0;
       i < 200000 && cluster.job(id).state() != JobState::Transferring; ++i) {
    ASSERT_TRUE(sim.step());
  }
  ASSERT_EQ(cluster.job(id).state(), JobState::Transferring);
  sim.run(sim.now() + 30_ms);
  const net::NodeRange alloc = cluster.job(id).nodes();
  const int victim = alloc.contains(0) ? alloc.last() : alloc.first;
  cluster.crash_node(victim);

  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));
  EXPECT_EQ(cluster.job(id).state(), JobState::Completed);
  EXPECT_GE(cluster.job(id).restarts(), 1);
  EXPECT_GE(counter_value(cluster, "ft.aborts"), 1)
      << "the in-flight pipeline must have unwound";
  EXPECT_EQ(counter_value(cluster, "ft.transfers"),
            1 + cluster.job(id).restarts());
}

// --- node recovery ---------------------------------------------------------

TEST(Recovery, RecoveredNodeRejoinsAllocator) {
  sim::Simulator sim;
  Cluster cluster(sim, recovery_config(8));
  cluster.crash_node(5);
  sim.run(1_sec);  // detected and evicted
  ASSERT_EQ(cluster.mm().failed_nodes(), std::vector<int>{5});
  cluster.recover_node(5);
  sim.run(2_sec);
  EXPECT_TRUE(cluster.mm().failed_nodes().empty());
  EXPECT_EQ(counter_value(cluster, "mm.recovery.rejoins"), 1);
  // The restored capacity is real: a full-machine job now fits.
  const JobId id = cluster.submit({.binary_size = 1_MB,
                                   .npes = 32,
                                   .program = compute_program(100_ms)});
  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));
  EXPECT_EQ(cluster.job(id).state(), JobState::Completed);
  EXPECT_EQ(cluster.job(id).restarts(), 0);
  // ... and the re-registered node does not get re-declared dead.
  EXPECT_TRUE(cluster.mm().failed_nodes().empty());
}

TEST(Recovery, UndetectedOutageKillsSuspectJobs) {
  // A crash/recover cycle shorter than the detection latency: the MM
  // never declares the node dead, but its dæmon state is gone, so the
  // jobs spanning it must still be restarted on rejoin.
  sim::Simulator sim;
  ClusterConfig cfg = recovery_config(8);
  cfg.storm.heartbeat_period_quanta = 50;  // 500 ms heartbeat: slow declare
  Cluster cluster(sim, cfg);
  const JobId id = cluster.submit({.binary_size = 1_MB,
                                   .npes = 16,
                                   .program = compute_program(3_sec)});
  sim.run(700_ms);
  ASSERT_EQ(cluster.job(id).state(), JobState::Running);
  const net::NodeRange alloc = cluster.job(id).nodes();
  const int victim = alloc.contains(0) ? alloc.last() : alloc.first;
  cluster.crash_node(victim);
  sim.run(sim.now() + 20_ms);  // back before anyone noticed
  ASSERT_TRUE(cluster.mm().failed_nodes().empty());
  cluster.recover_node(victim);
  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));
  EXPECT_EQ(cluster.job(id).state(), JobState::Completed);
  EXPECT_GE(cluster.job(id).restarts(), 1);
  EXPECT_EQ(counter_value(cluster, "mm.recovery.rejoins"), 0);
}

// --- hot-standby failover --------------------------------------------------

ClusterConfig standby_config(int nodes) {
  ClusterConfig cfg = recovery_config(nodes);
  cfg.storm.standby_mm_enabled = true;  // standby on the last node
  cfg.storm.standby_miss_periods = 3;
  return cfg;
}

TEST(Failover, StandbyTakesOverAfterPrimaryCrash) {
  sim::Simulator sim;
  Cluster cluster(sim, standby_config(8));
  const JobId a = cluster.submit({.binary_size = 1_MB,
                                  .npes = 16,
                                  .program = compute_program(2_sec)});
  sim.run(500_ms);
  ASSERT_EQ(cluster.job(a).state(), JobState::Running);
  ASSERT_EQ(cluster.mm().node(), 0);
  cluster.crash_mm();  // dæmon dies; its node survives

  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));
  EXPECT_EQ(cluster.job(a).state(), JobState::Completed);
  // The standby is now the active MM.
  EXPECT_EQ(cluster.mm().node(), 7);
  EXPECT_TRUE(cluster.mm_standby()->active());
  EXPECT_EQ(counter_value(cluster, "mm.failover.count"), 1);
  // Detection gap and resume latency were both measured, and the gap
  // is in the configured ballpark (3 missed 50 ms heartbeat periods).
  const telemetry::Histogram* gap =
      cluster.metrics().find_histogram("mm.failover.gap_ns");
  const telemetry::Histogram* resume =
      cluster.metrics().find_histogram("mm.failover.resume_ns");
  ASSERT_NE(gap, nullptr);
  ASSERT_NE(resume, nullptr);
  EXPECT_EQ(gap->count(), 1);
  EXPECT_EQ(resume->count(), 1);
  EXPECT_GT(SimTime::ns(static_cast<std::int64_t>(gap->mean())), 150_ms);
  EXPECT_LT(SimTime::ns(static_cast<std::int64_t>(gap->mean())), 500_ms);
}

TEST(Failover, RunningJobsSurviveFailoverWithoutRestart) {
  // A Running job's state lives on the nodes, not in the MM: the
  // standby adopts it at its existing allocation instead of killing it.
  sim::Simulator sim;
  Cluster cluster(sim, standby_config(8));
  const JobId a = cluster.submit({.binary_size = 1_MB,
                                  .npes = 16,
                                  .program = compute_program(3_sec)});
  sim.run(500_ms);
  ASSERT_EQ(cluster.job(a).state(), JobState::Running);
  cluster.crash_mm();
  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));
  EXPECT_EQ(cluster.job(a).state(), JobState::Completed);
  EXPECT_EQ(cluster.job(a).restarts(), 0);
  EXPECT_EQ(counter_value(cluster, "mm.recovery.kills"), 0);
}

TEST(Failover, PrimaryNodeDeathFailsOverAndRequeues) {
  // Crash the primary's whole node mid-run: the standby takes over AND
  // declares node 0 dead, requeueing the job that spanned it.
  sim::Simulator sim;
  Cluster cluster(sim, standby_config(8));
  const JobId a = cluster.submit({.binary_size = 1_MB,
                                  .npes = 16,  // nodes 0-3
                                  .program = compute_program(2_sec)});
  sim.run(500_ms);
  ASSERT_EQ(cluster.job(a).state(), JobState::Running);
  ASSERT_TRUE(cluster.job(a).nodes().contains(0));
  cluster.crash_node(0);

  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));
  EXPECT_EQ(cluster.job(a).state(), JobState::Completed);
  EXPECT_EQ(cluster.mm().node(), 7);
  EXPECT_EQ(counter_value(cluster, "mm.failover.count"), 1);
  EXPECT_GE(cluster.job(a).restarts(), 1);
  EXPECT_FALSE(cluster.job(a).nodes().contains(0));
  std::vector<int> failed{0};
  EXPECT_EQ(cluster.mm().failed_nodes(), failed);
}

TEST(Failover, QueuedJobsSubmittedBeforeCrashStillRun) {
  sim::Simulator sim;
  ClusterConfig cfg = standby_config(8);
  cfg.app_cpus_per_node = 2;
  cfg.storm.max_mpl = 1;  // one matrix row: second job must queue
  Cluster cluster(sim, cfg);
  const JobId a = cluster.submit({.binary_size = 1_MB,
                                  .npes = 16,  // the whole machine
                                  .program = compute_program(2_sec)});
  const JobId b = cluster.submit({.binary_size = 1_MB,
                                  .npes = 16,
                                  .program = compute_program(500_ms)});
  sim.run(500_ms);
  ASSERT_EQ(cluster.job(b).state(), JobState::Queued);
  cluster.crash_mm();
  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));
  EXPECT_EQ(cluster.job(a).state(), JobState::Completed);
  EXPECT_EQ(cluster.job(b).state(), JobState::Completed);
  EXPECT_EQ(cluster.mm().completed_count(), 2);
}

}  // namespace
}  // namespace storm::core
