// End-to-end tests of the STORM management plane on the simulated
// ES40/QsNET cluster: launch timing against the paper's headline
// numbers, gang-scheduling behaviour, batch policies, fault detection.
#include "storm/cluster.hpp"

#include <gtest/gtest.h>

#include "storm/machine_manager.hpp"
#include "storm/node_manager.hpp"

namespace storm::core {
namespace {

using sim::SimTime;
using sim::Task;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

ClusterConfig launch_config(int nodes) {
  // The paper's job-launching setup: 1 ms timeslice "to minimize the
  // MM overhead and expose maximal protocol performance".
  ClusterConfig cfg = ClusterConfig::es40(nodes);
  cfg.storm.quantum = 1_ms;
  return cfg;
}

AppProgram compute_program(SimTime work) {
  return [work](AppContext& ctx) -> Task<> { co_await ctx.compute(work); };
}

TEST(ClusterLaunch, HeadlineTwelveMegabytesOn64Nodes) {
  // Section 3.1.1: "a 12 MB file can be launched in 110 ms ... the
  // average transfer time is 96 ms".
  sim::Simulator sim;
  Cluster cluster(sim, launch_config(64));
  const JobId id = cluster.submit(
      {.name = "noop", .binary_size = 12_MB, .npes = 256});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
  const auto& t = cluster.job(id).times();
  EXPECT_NEAR(t.send_time().to_millis(), 96.0, 15.0);
  EXPECT_GT(t.execute_time().to_millis(), 3.0);
  EXPECT_LT(t.execute_time().to_millis(), 40.0);
  EXPECT_NEAR(t.launch_time().to_millis(), 110.0, 25.0);
}

TEST(ClusterLaunch, SendTimeProportionalToBinarySize) {
  sim::Simulator sim;
  Cluster cluster(sim, launch_config(64));
  const JobId j4 = cluster.submit({.binary_size = 4_MB, .npes = 256});
  ASSERT_TRUE(cluster.run_until_complete(j4, 60_sec));
  const JobId j8 = cluster.submit({.binary_size = 8_MB, .npes = 256});
  ASSERT_TRUE(cluster.run_until_complete(j8, 60_sec));
  const double s4 = cluster.job(j4).times().send_time().to_millis();
  const double s8 = cluster.job(j8).times().send_time().to_millis();
  EXPECT_NEAR(s8 / s4, 2.0, 0.25);
}

TEST(ClusterLaunch, ExecuteTimeIndependentOfBinarySize) {
  sim::Simulator sim;
  Cluster cluster(sim, launch_config(64));
  const JobId j4 = cluster.submit({.binary_size = 4_MB, .npes = 256});
  ASSERT_TRUE(cluster.run_until_complete(j4, 60_sec));
  const JobId j12 = cluster.submit({.binary_size = 12_MB, .npes = 256});
  ASSERT_TRUE(cluster.run_until_complete(j12, 60_sec));
  const double e4 = cluster.job(j4).times().execute_time().to_millis();
  const double e12 = cluster.job(j12).times().execute_time().to_millis();
  EXPECT_LT(std::abs(e12 - e4), 10.0);
}

TEST(ClusterLaunch, ExecuteTimeGrowsWithNodeCountViaSkew) {
  // Figure 2: execute times "grow more rapidly with the number of
  // nodes ... skew caused by local operating system scheduling".
  sim::Simulator sim1;
  Cluster c1(sim1, launch_config(1));
  const JobId ja = c1.submit({.binary_size = 4_MB, .npes = 4});
  ASSERT_TRUE(c1.run_until_all_complete(60_sec));

  sim::Simulator sim64;
  Cluster c64(sim64, launch_config(64));
  const JobId jb = c64.submit({.binary_size = 4_MB, .npes = 256});
  ASSERT_TRUE(c64.run_until_all_complete(60_sec));

  EXPECT_GT(c64.job(jb).times().execute_time(),
            c1.job(ja).times().execute_time());
}

TEST(ClusterLaunch, SingleNodeSinglePe) {
  sim::Simulator sim;
  Cluster cluster(sim, launch_config(1));
  const JobId id = cluster.submit({.binary_size = 4_MB, .npes = 1});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
  EXPECT_EQ(cluster.job(id).state(), JobState::Completed);
  EXPECT_GT(cluster.job(id).times().send_time().to_millis(), 10.0);
}

TEST(ClusterLaunch, CpuLoadSlowsLaunch) {
  sim::Simulator sim;
  Cluster cluster(sim, launch_config(16));
  const JobId quiet = cluster.submit({.binary_size = 12_MB, .npes = 64});
  ASSERT_TRUE(cluster.run_until_complete(quiet, 120_sec));
  cluster.start_cpu_load();
  const JobId loaded = cluster.submit({.binary_size = 12_MB, .npes = 64});
  ASSERT_TRUE(cluster.run_until_complete(loaded, 600_sec));
  cluster.stop_cpu_load();
  EXPECT_GT(cluster.job(loaded).times().launch_time().to_seconds(),
            cluster.job(quiet).times().launch_time().to_seconds() * 1.5);
}

TEST(ClusterLaunch, NetworkLoadSlowsLaunchMore) {
  // Figure 3: the network-loaded launch is the worst case (~1.5 s for
  // 12 MB on the full machine).
  sim::Simulator sim;
  Cluster cluster(sim, launch_config(64));
  const JobId quiet = cluster.submit({.binary_size = 12_MB, .npes = 256});
  ASSERT_TRUE(cluster.run_until_complete(quiet, 120_sec));
  cluster.start_network_load();
  const JobId loaded = cluster.submit({.binary_size = 12_MB, .npes = 256});
  ASSERT_TRUE(cluster.run_until_complete(loaded, 600_sec));
  cluster.stop_network_load();
  const double t = cluster.job(loaded).times().launch_time().to_seconds();
  EXPECT_GT(t, 0.8);
  EXPECT_LT(t, 2.5);  // "it still takes only 1.5 seconds"
}

TEST(ClusterApps, ComputeJobRunsForItsWork) {
  sim::Simulator sim;
  ClusterConfig cfg = ClusterConfig::es40(4);
  Cluster cluster(sim, cfg);
  const JobId id = cluster.submit({.name = "synth",
                                   .binary_size = 1_MB,
                                   .npes = 16,
                                   .program = compute_program(500_ms)});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
  const auto& t = cluster.job(id).times();
  // started/finished are MM boundary observations, so the measured
  // interval can straddle the true 500 ms by up to a quantum each way.
  const double run = (t.finished - t.started).to_seconds();
  EXPECT_GT(run, 0.44);
  EXPECT_LT(run, 0.65);
}

TEST(ClusterApps, MessagePassingBetweenRanks) {
  sim::Simulator sim;
  Cluster cluster(sim, ClusterConfig::es40(4));
  bool rank1_got_message = false;
  auto program = [&](AppContext& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      co_await ctx.compute(1_ms);
      co_await ctx.send(1, 64_KB);
    } else {
      co_await ctx.recv(0);
      rank1_got_message = true;
    }
  };
  const JobId id = cluster.submit(
      {.binary_size = 1_MB, .npes = 2, .program = program});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
  EXPECT_TRUE(rank1_got_message);
  EXPECT_EQ(cluster.job(id).state(), JobState::Completed);
}

TEST(ClusterGang, TwoJobsTimeShareWithMpl2) {
  // Two identical CPU-bound jobs on the same nodes, MPL 2: each takes
  // ~2x its solo runtime, and the normalised runtime (total / MPL)
  // stays close to the solo runtime — Figure 4's flat curve.
  sim::Simulator sim;
  ClusterConfig cfg = ClusterConfig::es40(8);
  cfg.app_cpus_per_node = 2;
  cfg.storm.quantum = 20_ms;
  cfg.storm.max_mpl = 2;
  Cluster cluster(sim, cfg);
  const SimTime work = 2_sec;
  const JobId a = cluster.submit({.name = "a",
                                  .binary_size = 1_MB,
                                  .npes = 16,
                                  .program = compute_program(work)});
  const JobId b = cluster.submit({.name = "b",
                                  .binary_size = 1_MB,
                                  .npes = 16,
                                  .program = compute_program(work)});
  ASSERT_TRUE(cluster.run_until_all_complete(300_sec));
  const auto& ta = cluster.job(a).times();
  const auto& tb = cluster.job(b).times();
  const double makespan =
      (std::max(ta.finished, tb.finished) -
       std::min(ta.launch_issued, tb.launch_issued))
          .to_seconds();
  const double normalized = makespan / 2.0;
  EXPECT_GT(normalized, work.to_seconds() * 0.98);
  EXPECT_LT(normalized, work.to_seconds() * 1.15);
  EXPECT_GT(cluster.mm().strobes_issued(), 100);
}

TEST(ClusterGang, JobsProgressInterleavedNotSerially) {
  // With gang time slicing both jobs must be in flight simultaneously:
  // job B starts long before job A finishes.
  sim::Simulator sim;
  ClusterConfig cfg = ClusterConfig::es40(4);
  cfg.app_cpus_per_node = 2;
  cfg.storm.quantum = 10_ms;
  Cluster cluster(sim, cfg);
  const JobId a = cluster.submit(
      {.binary_size = 1_MB, .npes = 8, .program = compute_program(1_sec)});
  const JobId b = cluster.submit(
      {.binary_size = 1_MB, .npes = 8, .program = compute_program(1_sec)});
  ASSERT_TRUE(cluster.run_until_all_complete(300_sec));
  EXPECT_LT(cluster.job(b).times().started, cluster.job(a).times().finished);
}

TEST(ClusterGang, SmallerQuantumCostsLittle) {
  // The headline scheduling claim: 2 ms quanta with "virtually no
  // performance degradation" (< 2-3% here).
  auto run_with_quantum = [](SimTime q) {
    sim::Simulator sim;
    ClusterConfig cfg = ClusterConfig::es40(8);
    cfg.app_cpus_per_node = 2;
    cfg.storm.quantum = q;
    Cluster cluster(sim, cfg);
    const JobId a = cluster.submit(
        {.binary_size = 1_MB, .npes = 16, .program = compute_program(2_sec)});
    const JobId b = cluster.submit(
        {.binary_size = 1_MB, .npes = 16, .program = compute_program(2_sec)});
    EXPECT_TRUE(cluster.run_until_all_complete(600_sec));
    return (std::max(cluster.job(a).times().finished,
                     cluster.job(b).times().finished) -
            std::min(cluster.job(a).times().launch_issued,
                     cluster.job(b).times().launch_issued))
        .to_seconds();
  };
  const double at_2ms = run_with_quantum(2_ms);
  const double at_1s = run_with_quantum(1_sec);
  EXPECT_LT(at_2ms, at_1s * 1.03);
}

TEST(ClusterBatch, FcfsRunsHeadOfLineFirst) {
  sim::Simulator sim;
  ClusterConfig cfg = ClusterConfig::es40(8);
  cfg.storm.scheduler = SchedulerKind::BatchFcfs;
  Cluster cluster(sim, cfg);
  // Half-fill the machine, then queue a full-machine job and a small
  // job behind it.
  const JobId big1 = cluster.submit({.binary_size = 1_MB,
                                     .npes = 16,
                                     .program = compute_program(1_sec),
                                     .estimated_runtime = 2_sec});
  const JobId big2 = cluster.submit({.binary_size = 1_MB,
                                     .npes = 32,
                                     .program = compute_program(200_ms),
                                     .estimated_runtime = 1_sec});
  const JobId small = cluster.submit({.binary_size = 1_MB,
                                      .npes = 4,
                                      .program = compute_program(100_ms),
                                      .estimated_runtime = 500_ms});
  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));
  // FCFS: small must not start before big2 (head of line).
  EXPECT_GE(cluster.job(small).times().transfer_start,
            cluster.job(big2).times().transfer_start);
  (void)big1;
}

TEST(ClusterBatch, EasyBackfillsSmallJobPastBlockedHead) {
  sim::Simulator sim;
  ClusterConfig cfg = ClusterConfig::es40(8);
  cfg.storm.scheduler = SchedulerKind::BatchEasy;
  Cluster cluster(sim, cfg);
  const JobId big1 = cluster.submit({.binary_size = 1_MB,
                                     .npes = 16,
                                     .program = compute_program(2_sec),
                                     .estimated_runtime = 3_sec});
  const JobId big2 = cluster.submit({.binary_size = 1_MB,
                                     .npes = 32,
                                     .program = compute_program(200_ms),
                                     .estimated_runtime = 1_sec});
  const JobId small = cluster.submit({.binary_size = 1_MB,
                                      .npes = 4,
                                      .program = compute_program(100_ms),
                                      .estimated_runtime = 500_ms});
  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));
  // EASY: the small job backfills around the blocked 32-PE head.
  EXPECT_LT(cluster.job(small).times().finished,
            cluster.job(big2).times().started);
  (void)big1;
}

TEST(ClusterFault, HeartbeatDetectsKilledNode) {
  sim::Simulator sim;
  ClusterConfig cfg = ClusterConfig::es40(16);
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_period_quanta = 5;  // 50 ms heartbeat
  Cluster cluster(sim, cfg);
  int failed_node = -1;
  SimTime detected_at = SimTime::zero();
  cluster.mm().set_failure_callback([&](int n, SimTime when) {
    failed_node = n;
    detected_at = when;
  });
  sim.run(500_ms);
  ASSERT_TRUE(cluster.mm().failed_nodes().empty());
  cluster.crash_node(7);
  const SimTime killed_at = sim.now();
  sim.run(killed_at + 2_sec);
  EXPECT_EQ(failed_node, 7);
  const double latency_ms = (detected_at - killed_at).to_millis();
  EXPECT_GT(latency_ms, 0.0);
  EXPECT_LT(latency_ms, 200.0);  // a few heartbeat periods
}

TEST(ClusterFault, NoFalsePositivesUnderLoad) {
  sim::Simulator sim;
  ClusterConfig cfg = ClusterConfig::es40(8);
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_period_quanta = 5;
  Cluster cluster(sim, cfg);
  cluster.start_cpu_load();
  bool fired = false;
  cluster.mm().set_failure_callback(
      [&](int, SimTime) { fired = true; });
  sim.run(3_sec);
  EXPECT_FALSE(fired);
}

TEST(ClusterNm, MailboxKeepsUpAtFeasibleQuanta) {
  sim::Simulator sim;
  ClusterConfig cfg = ClusterConfig::es40(4);
  cfg.app_cpus_per_node = 2;
  cfg.storm.quantum = 2_ms;
  Cluster cluster(sim, cfg);
  const JobId a = cluster.submit(
      {.binary_size = 1_MB, .npes = 8, .program = compute_program(500_ms)});
  const JobId b = cluster.submit(
      {.binary_size = 1_MB, .npes = 8, .program = compute_program(500_ms)});
  ASSERT_TRUE(cluster.run_until_all_complete(300_sec));
  (void)a;
  (void)b;
  for (int n = 0; n < 4; ++n) {
    EXPECT_LE(cluster.nm(n).max_mailbox_depth(), 4u)
        << "NM " << n << " fell behind at a feasible quantum";
  }
}

TEST(ClusterMisc, JobStateProgression) {
  sim::Simulator sim;
  Cluster cluster(sim, launch_config(4));
  const JobId id = cluster.submit({.binary_size = 4_MB, .npes = 16});
  EXPECT_EQ(cluster.job(id).state(), JobState::Queued);
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
  const auto& t = cluster.job(id).times();
  EXPECT_LE(t.submit, t.transfer_start);
  EXPECT_LT(t.transfer_start, t.transfer_done);
  EXPECT_LE(t.transfer_done, t.launch_issued);
  EXPECT_LT(t.launch_issued, t.started);
  EXPECT_LE(t.started, t.finished);
}

TEST(ClusterMisc, ManySequentialJobsReuseResources) {
  sim::Simulator sim;
  Cluster cluster(sim, launch_config(4));
  for (int i = 0; i < 5; ++i) {
    const JobId id = cluster.submit({.binary_size = 1_MB, .npes = 16});
    ASSERT_TRUE(cluster.run_until_complete(id, 60_sec)) << "job " << i;
  }
  EXPECT_EQ(cluster.mm().completed_count(), 5);
  EXPECT_EQ(cluster.mm().matrix().job_count(), 0u);
}

}  // namespace
}  // namespace storm::core
