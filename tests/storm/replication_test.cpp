// Quorum-replicated Machine Manager: bootstrap commits through a
// majority, a leader crash elects a follower whose MM adopts the
// machine, a minority-isolated leader commits nothing once its lease
// expires, and same-seed runs are byte-identical end to end.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fabric/fault_plan.hpp"
#include "fabric/trace_sink.hpp"
#include "storm/cluster.hpp"
#include "storm/machine_manager.hpp"
#include "storm/replication/replication.hpp"

namespace storm::core {
namespace {

using sim::SimTime;
using sim::Task;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

ClusterConfig repl_config(int nodes) {
  ClusterConfig cfg = ClusterConfig::es40(nodes);
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;  // 50 ms heartbeat
  cfg.storm.replication_enabled = true;   // quorum MMs on 0, 14, 15
  return cfg;
}

AppProgram compute_program(SimTime work) {
  return [work](AppContext& ctx) -> Task<> { co_await ctx.compute(work); };
}

std::int64_t counter_value(const Cluster& cluster, std::string_view name) {
  const telemetry::Counter* c = cluster.metrics().find_counter(name);
  return c ? c->value() : 0;
}

// --- bootstrap -------------------------------------------------------------

TEST(Replication, BootstrapCommitsPlacementsThroughQuorum) {
  sim::Simulator sim;
  Cluster cluster(sim, repl_config(16));
  const JobId a = cluster.submit({.name = "a",
                                  .binary_size = 1_MB,
                                  .npes = 16,
                                  .program = compute_program(500_ms)});
  const JobId b = cluster.submit({.name = "b",
                                  .binary_size = 1_MB,
                                  .npes = 8,
                                  .program = compute_program(300_ms)});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
  EXPECT_EQ(cluster.job(a).state(), JobState::Completed);
  EXPECT_EQ(cluster.job(b).state(), JobState::Completed);

  ReplicationGroup* g = cluster.replication();
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->active_rank(), 0);
  EXPECT_EQ(g->elections(), 0);
  // Both placements went through the log before any bytes moved.
  EXPECT_GE(g->commits(), 2);
  EXPECT_EQ(g->stale_aborts(), 0);
  const std::vector<ReplicaStatus> st = g->status();
  ASSERT_EQ(st.size(), 3u);
  EXPECT_EQ(st[0].role, ReplRole::Leader);
  EXPECT_EQ(st[0].term, 1);
  EXPECT_EQ(st[1].role, ReplRole::Follower);
  EXPECT_EQ(st[2].role, ReplRole::Follower);
  EXPECT_GE(st[0].commit, 2);
  // Committed-prefix agreement, checked via the rolling digests.
  for (const ReplicaStatus& s : st) {
    EXPECT_EQ(s.floor_index, st[0].floor_index) << "rank " << s.rank;
    EXPECT_EQ(s.floor_digest, st[0].floor_digest) << "rank " << s.rank;
  }
}

// --- leader crash ----------------------------------------------------------

TEST(Replication, LeaderCrashElectsFollowerAndJobsComplete) {
  sim::Simulator sim;
  Cluster cluster(sim, repl_config(16));
  const JobId a = cluster.submit({.name = "long",
                                  .binary_size = 1_MB,
                                  .npes = 16,
                                  .program = compute_program(2_sec)});
  sim.run(500_ms);
  ASSERT_EQ(cluster.job(a).state(), JobState::Running);
  cluster.crash_mm();  // the leader's dæmon dies; its node survives

  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));
  EXPECT_EQ(cluster.job(a).state(), JobState::Completed);
  EXPECT_EQ(cluster.job(a).restarts(), 0) << "Running jobs are adopted";

  ReplicationGroup* g = cluster.replication();
  ASSERT_NE(g, nullptr);
  EXPECT_NE(g->active_rank(), 0);
  EXPECT_GE(g->elections(), 1);
  EXPECT_EQ(counter_value(cluster, "mm.failover.count"), 1);
  // The quorum lease bounds the gap: one lease plus the first
  // follower's election stagger, far under the hot-standby's
  // heartbeat-counting window (150 ms and up; see recovery_test).
  const SimTime gap = g->last_failover_gap();
  EXPECT_GT(gap, SimTime{});
  EXPECT_LT(gap, 100_ms);
  // The dead rank never leads again and the survivors agree.
  const std::vector<ReplicaStatus> st = g->status();
  EXPECT_NE(st[0].role, ReplRole::Leader);
  for (const ReplicaStatus& s : st) {
    EXPECT_EQ(s.floor_digest, st[0].floor_digest) << "rank " << s.rank;
  }
}

// --- split brain -----------------------------------------------------------

TEST(Replication, MinorityIsolatedLeaderCommitsNothingAfterLease) {
  // Drop every Repl message from the followers toward the leader
  // while the leader's own sends still arrive: its lease starves, the
  // majority side elects, and the old leader's commit index freezes.
  sim::Simulator sim;
  Cluster cluster(sim, repl_config(16));
  // The cut opens at 500 ms and heals at 1190 ms.
  auto plan = std::make_shared<fabric::FaultPlan>(sim);
  plan->add(fabric::FaultRule::one_way({14, 15}, {0}, {fabric::MsgClass::Repl},
                                       500_ms, 1190_ms));
  cluster.fabric().push(plan);

  cluster.submit({.name = "long",
                  .binary_size = 1_MB,
                  .npes = 16,
                  .program = compute_program(4_sec)});
  sim.run(500_ms);
  ReplicationGroup* g = cluster.replication();
  ASSERT_NE(g, nullptr);
  ASSERT_EQ(g->active_rank(), 0);

  // One lease (20 ms) later the starved leader must have abdicated;
  // nothing it logged after the cut may ever commit.
  sim.run(560_ms);
  const std::int64_t frozen = g->commit_index(0);
  EXPECT_FALSE(g->may_lead(0));
  sim.run(1190_ms);
  EXPECT_EQ(g->commit_index(0), frozen)
      << "a minority-isolated leader must not commit";
  EXPECT_NE(g->active_rank(), 0) << "the majority side must have elected";
  EXPECT_GE(g->elections(), 1);
  EXPECT_GT(plan->rule(0).hits(), 0);

  // The cut has healed: the deposed leader re-follows the new term and
  // the group reconverges on one committed prefix.
  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));
  const std::vector<ReplicaStatus> st = g->status();
  EXPECT_NE(st[0].role, ReplRole::Leader);
  for (const ReplicaStatus& s : st) {
    EXPECT_EQ(s.floor_index, st[0].floor_index) << "rank " << s.rank;
    EXPECT_EQ(s.floor_digest, st[0].floor_digest) << "rank " << s.rank;
  }
  EXPECT_EQ(g->commit_index(1), g->commit_index(0));
  EXPECT_EQ(g->commit_index(2), g->commit_index(0));
}

// --- determinism -----------------------------------------------------------

TEST(Replication, SameSeedLeaderCrashRunsAreByteIdentical) {
  auto run_once = [] {
    sim::Simulator sim(0x5704);
    Cluster cluster(sim, repl_config(16));
    auto sink = std::make_shared<fabric::StructuredTraceSink>(sim);
    cluster.fabric().push(sink);
    cluster.submit({.name = "a",
                    .binary_size = 2_MB,
                    .npes = 32,
                    .program = compute_program(1500_ms)});
    cluster.submit({.name = "b",
                    .binary_size = 1_MB,
                    .npes = 8,
                    .program = compute_program(800_ms)});
    sim.run(500_ms);
    cluster.crash_mm();
    EXPECT_TRUE(cluster.run_until_all_complete(600_sec));
    return sink->bytes();
  };
  const std::vector<std::uint8_t> a = run_once();
  const std::vector<std::uint8_t> b = run_once();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "same-seed replication runs must be byte-identical";
}

}  // namespace
}  // namespace storm::core
