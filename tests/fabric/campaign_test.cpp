// Tests for the recovery-oriented fault rules — reordered deliveries,
// silenced nodes, one-way cuts, partitions — and the deterministic
// fault-campaign harness that arms them.
#include "fabric/fault_campaign.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fabric/fault_plan.hpp"
#include "fabric/trace_sink.hpp"
#include "storm/cluster.hpp"
#include "storm/machine_manager.hpp"

namespace storm::fabric {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::JobId;
using core::JobState;
using sim::SimTime;
using sim::Task;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

core::AppProgram compute_program(SimTime work) {
  return
      [work](core::AppContext& ctx) -> Task<> { co_await ctx.compute(work); };
}

ClusterConfig hb_config(int nodes) {
  ClusterConfig cfg = ClusterConfig::es40(nodes);
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;
  return cfg;
}

// --- reordered deliveries -------------------------------------------------

TEST(ReorderBuffer, CommandHandlingIsOrderInsensitive) {
  // Jitter every MM->NM delivery by up to 2 ms — strobes arrive out of
  // order between nodes and between consecutive commands to one node.
  // Strobes carry the absolute matrix row and heartbeat epochs are
  // monotonic, so the gang workload must still run to completion with
  // no node falsely declared dead.
  sim::Simulator sim;
  ClusterConfig cfg = hb_config(8);
  cfg.app_cpus_per_node = 2;
  Cluster cluster(sim, cfg);
  auto plan = std::make_shared<FaultPlan>(sim, sim.rng().fork(0x0DDE));
  const std::size_t reorder = plan->add(FaultRule::reorder(2_ms));
  cluster.fabric().push(plan);

  const JobId a = cluster.submit(
      {.binary_size = 1_MB, .npes = 16, .program = compute_program(500_ms)});
  const JobId b = cluster.submit(
      {.binary_size = 1_MB, .npes = 16, .program = compute_program(500_ms)});
  ASSERT_TRUE(cluster.run_until_all_complete(120_sec));
  EXPECT_EQ(cluster.job(a).state(), JobState::Completed);
  EXPECT_EQ(cluster.job(b).state(), JobState::Completed);
  EXPECT_GT(plan->rule(reorder).hits(), 100);
  EXPECT_TRUE(cluster.mm().failed_nodes().empty())
      << "reordered deliveries must not look like node death";
}

TEST(ReorderBuffer, ClassFilterRestrictsJitter) {
  // Only strobe deliveries are held, and with no job nothing strobes:
  // the heartbeat deliveries pass untouched.
  sim::Simulator sim;
  Cluster cluster(sim, hb_config(4));
  auto plan = std::make_shared<FaultPlan>(sim, sim.rng().fork(0x0DDF));
  plan->add(FaultRule::reorder(1_ms, {MsgClass::Strobe}));
  cluster.fabric().push(plan);
  sim.run(1_sec);
  EXPECT_EQ(plan->rule(0).hits(), 0);
  EXPECT_GT(cluster.metrics().find_counter("mm.heartbeat.rounds")->value(), 0);
}

// --- silenced nodes --------------------------------------------------------

TEST(FaultInjectorSilence, SilencedNodeIsDeclaredDead) {
  // The node's dæmons are alive, but the plan blacks out all its
  // traffic: detection must declare it dead just the same.
  sim::Simulator sim;
  Cluster cluster(sim, hb_config(8));
  auto plan = std::make_shared<FaultPlan>(sim);
  cluster.fabric().push(plan);
  sim.run(300_ms);
  ASSERT_TRUE(cluster.mm().failed_nodes().empty());
  const std::size_t silent = plan->add(FaultRule::silence(5));
  sim.run(2_sec);
  EXPECT_EQ(cluster.mm().failed_nodes(), std::vector<int>{5});
  EXPECT_GT(plan->rule(silent).hits(), 0);
  EXPECT_TRUE(plan->rule(silent).src.contains(5));
  EXPECT_FALSE(plan->rule(silent).src.contains(4));
}

TEST(FaultInjectorSilence, UnsilenceStopsTheDrops) {
  sim::Simulator sim;
  Cluster cluster(sim, hb_config(4));
  auto plan = std::make_shared<FaultPlan>(sim);
  FaultRule silence = FaultRule::silence(2);
  silence.end = 1_sec;  // the window closes: node 2 is heard again
  plan->add(silence);
  cluster.fabric().push(plan);
  sim.run(1_sec);
  const std::int64_t during = plan->rule(0).hits();
  ASSERT_GT(during, 0);
  sim.run(3_sec);
  EXPECT_EQ(plan->rule(0).hits(), during);
}

// --- asymmetric (one-way) drops -------------------------------------------

TEST(FaultInjectorOneWay, CutsOnlyTheGivenDirection) {
  // MM (node 0) -> node 5 deliveries are dropped: node 5 stops hearing
  // heartbeats, its plane word stalls, and detection declares it dead.
  // Every other node keeps tracking the epoch — the cut is directional
  // and targeted, unlike silence.
  sim::Simulator sim;
  Cluster cluster(sim, hb_config(8));
  auto plan = std::make_shared<FaultPlan>(sim);
  cluster.fabric().push(plan);
  sim.run(300_ms);
  ASSERT_TRUE(cluster.mm().failed_nodes().empty());
  plan->add(FaultRule::one_way({0}, {5}, {}, 300_ms, 2_sec));
  sim.run(2_sec);
  EXPECT_EQ(cluster.mm().failed_nodes(), std::vector<int>{5});
  EXPECT_GT(plan->rule(0).hits(), 0);

  // Past the window's end the cut stops.
  const std::int64_t frozen = plan->rule(0).hits();
  sim.run(3_sec);
  EXPECT_EQ(plan->rule(0).hits(), frozen);
}

TEST(FaultInjectorOneWay, ClassFilterRestrictsTheCut) {
  sim::Simulator sim;
  Cluster cluster(sim, hb_config(8));
  auto plan = std::make_shared<FaultPlan>(sim);
  cluster.fabric().push(plan);
  // Cut only Strobe traffic toward node 5: heartbeats still flow, so
  // nothing is declared dead and (with no job strobing) nothing is
  // dropped at all.
  plan->add(FaultRule::one_way({0}, {5}, {MsgClass::Strobe}));
  sim.run(2_sec);
  EXPECT_TRUE(cluster.mm().failed_nodes().empty());
  EXPECT_EQ(plan->rule(0).hits(), 0);
}

TEST(FaultCampaign, AsymPartitionWindowsToggleTheInjector) {
  sim::Simulator sim;
  Cluster cluster(sim, hb_config(8));
  FaultCampaign c;
  c.asym_partition({0}, {5}, 300_ms, 1500_ms);
  const std::shared_ptr<FaultPlan> plan =
      c.arm(sim, &cluster.fabric(), CampaignHooks{});
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->size(), 1u);
  sim.run(200_ms);  // before the window opens
  EXPECT_EQ(plan->rule(0).hits(), 0);
  sim.run(1_sec);  // inside the window
  EXPECT_GT(plan->rule(0).hits(), 0);
  sim.run(2_sec);  // past the end: the rule no longer matches
  EXPECT_EQ(cluster.mm().failed_nodes(), std::vector<int>{5});
  const std::int64_t frozen = plan->rule(0).hits();
  sim.run(3_sec);
  EXPECT_EQ(plan->rule(0).hits(), frozen);
}

// --- partitions --------------------------------------------------------------

TEST(PartitionSimulator, IslandedNodesDeclaredDeadDuringWindow) {
  sim::Simulator sim;
  Cluster cluster(sim, hb_config(16));
  auto plan = std::make_shared<FaultPlan>(sim);
  plan->add(FaultRule::partition({12, 13, 14, 15}, 300_ms, 1500_ms));
  cluster.fabric().push(plan);

  sim.run(200_ms);
  EXPECT_EQ(plan->rule(0).hits(), 0);
  EXPECT_TRUE(cluster.mm().failed_nodes().empty());
  sim.run(1500_ms);
  const std::int64_t during = plan->rule(0).hits();
  EXPECT_GT(during, 0);
  sim.run(4_sec);
  EXPECT_EQ(plan->rule(0).hits(), during);
  const std::vector<int> expect{12, 13, 14, 15};
  EXPECT_EQ(cluster.mm().failed_nodes(), expect);
}

TEST(PartitionSimulator, IntraIslandTrafficUnaffected) {
  // A window whose island is the whole machine cuts nothing: no
  // envelope crosses the boundary.
  sim::Simulator sim;
  Cluster cluster(sim, hb_config(4));
  auto plan = std::make_shared<FaultPlan>(sim);
  plan->add(FaultRule::partition({0, 1, 2, 3}, 0_ms, 5_sec));
  cluster.fabric().push(plan);
  sim.run(2_sec);
  EXPECT_EQ(plan->rule(0).hits(), 0);
  EXPECT_TRUE(cluster.mm().failed_nodes().empty());
}

// --- FaultCampaign ---------------------------------------------------------

TEST(FaultCampaign, SeededScheduleIsDeterministic) {
  FaultCampaign::SeedSpec spec;
  spec.nodes = 32;
  spec.crashes = 5;
  spec.window_start = 100_ms;
  spec.window_end = 2_sec;
  spec.min_downtime = 200_ms;
  spec.max_downtime = 800_ms;
  spec.protect = {0, 31};

  // Same seed, same schedule (fork() advances its parent, so the test
  // seeds two identical streams directly).
  auto a = FaultCampaign::seeded(sim::Rng(0xCA4DULL), spec);
  auto b = FaultCampaign::seeded(sim::Rng(0xCA4DULL), spec);
  ASSERT_EQ(a.events().size(), b.events().size());
  ASSERT_EQ(a.events().size(), 10u);  // 5 crashes + 5 recoveries
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
  }
  // A different seed gives a different schedule.
  auto c = FaultCampaign::seeded(sim::Rng(0xCA4EULL), spec);
  bool differs = false;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    if (a.events()[i].at != c.events()[i].at ||
        a.events()[i].node != c.events()[i].node) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(FaultCampaign, SeededScheduleRespectsSpec) {
  FaultCampaign::SeedSpec spec;
  spec.nodes = 16;
  spec.crashes = 4;
  spec.window_start = 500_ms;
  spec.window_end = 1500_ms;
  spec.min_downtime = 100_ms;
  spec.max_downtime = 300_ms;
  spec.protect = {0, 7};
  sim::Simulator sim(1ULL);
  auto c = FaultCampaign::seeded(sim.rng().fork(1), spec);
  std::vector<int> crashed;
  for (const auto& ev : c.events()) {
    if (ev.kind == FaultCampaign::EventKind::CrashNode) {
      EXPECT_GE(ev.at, 500_ms);
      EXPECT_LE(ev.at, 1500_ms);
      EXPECT_NE(ev.node, 0);
      EXPECT_NE(ev.node, 7);
      for (const int seen : crashed) EXPECT_NE(ev.node, seen);
      crashed.push_back(ev.node);
    }
  }
  EXPECT_EQ(crashed.size(), 4u);
}

TEST(FaultCampaign, ArmFiresHooksAtScheduledTimes) {
  sim::Simulator sim;
  FaultCampaign c;
  c.crash_node(3, 100_ms);
  c.recover_node(3, 400_ms);
  c.crash_primary_mm(250_ms);

  struct Fired {
    SimTime at;
    int node;  // -2 = mm crash
  };
  std::vector<Fired> fired;
  CampaignHooks hooks;
  hooks.crash_node = [&](int n) { fired.push_back({sim.now(), n}); };
  hooks.recover_node = [&](int n) { fired.push_back({sim.now(), n}); };
  hooks.crash_primary_mm = [&] { fired.push_back({sim.now(), -2}); };
  EXPECT_EQ(c.arm(sim, nullptr, hooks), nullptr);  // no windows

  sim.run(1_sec);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].at, 100_ms);
  EXPECT_EQ(fired[0].node, 3);
  EXPECT_EQ(fired[1].at, 250_ms);
  EXPECT_EQ(fired[1].node, -2);
  EXPECT_EQ(fired[2].at, 400_ms);
  EXPECT_EQ(fired[2].node, 3);
}

TEST(FaultCampaign, ArmInstallsPartitionSimulator) {
  // Partition and asym windows land in one plan, in that order; the
  // asym rule here never matches (node 1 is never a source of Repl).
  sim::Simulator sim;
  ClusterConfig cfg = hb_config(8);
  Cluster cluster(sim, cfg);
  FaultCampaign c;
  c.partition({6, 7}, 200_ms, 900_ms);
  c.asym_partition({1}, {0}, 200_ms, 900_ms, {MsgClass::Repl});
  auto plan = c.arm(sim, &cluster.fabric(), CampaignHooks{});
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->size(), 2u);
  EXPECT_EQ(cluster.fabric().middleware_count(), 1u);
  sim.run(2_sec);
  EXPECT_GT(plan->rule(0).hits(), 0);
  EXPECT_EQ(plan->rule(1).hits(), 0);
  const std::vector<int> expect{6, 7};
  EXPECT_EQ(cluster.mm().failed_nodes(), expect);
}

// --- end-to-end determinism under a full campaign --------------------------

TEST(FaultCampaign, SameSeedCampaignRunIsByteIdentical) {
  // The acceptance bar for the whole recovery stack: a campaign that
  // crashes a worker node mid-run (with later recovery) and the
  // primary MM mid-run must complete every job, and two same-seed runs
  // must produce byte-identical structured traces.
  struct Result {
    std::vector<std::uint8_t> trace;
    std::vector<SimTime> finished;
    int completed = 0;
  };
  auto run = [] {
    sim::Simulator sim(0x57'04'2002ULL);
    ClusterConfig cfg = ClusterConfig::es40(8);
    cfg.storm.quantum = 10_ms;
    cfg.storm.heartbeat_enabled = true;
    cfg.storm.heartbeat_period_quanta = 5;
    cfg.storm.standby_mm_enabled = true;
    Cluster cluster(sim, cfg);
    auto sink = std::make_shared<StructuredTraceSink>(sim);
    cluster.fabric().push(sink);

    FaultCampaign campaign;
    campaign.crash_node(2, 400_ms);     // under job a's allocation
    campaign.recover_node(2, 1800_ms);  // comes back after the requeue
    campaign.crash_primary_mm(900_ms);
    CampaignHooks hooks;
    hooks.crash_node = [&](int n) { cluster.crash_node(n); };
    hooks.recover_node = [&](int n) { cluster.recover_node(n); };
    hooks.crash_primary_mm = [&] { cluster.crash_mm(); };
    campaign.arm(sim, &cluster.fabric(), std::move(hooks));

    const JobId a = cluster.submit(
        {.binary_size = 1_MB, .npes = 16, .program = compute_program(2_sec)});
    const JobId b = cluster.submit(
        {.binary_size = 1_MB, .npes = 8, .program = compute_program(1_sec)});
    EXPECT_TRUE(cluster.run_until_all_complete(600_sec));
    Result r;
    r.completed = cluster.mm().completed_count();
    r.finished = {cluster.job(a).times().finished,
                  cluster.job(b).times().finished};
    r.trace = sink->bytes();
    EXPECT_EQ(cluster.job(a).state(), JobState::Completed);
    EXPECT_EQ(cluster.job(b).state(), JobState::Completed);
    return r;
  };

  const Result x = run();
  const Result y = run();
  EXPECT_EQ(x.completed, 2);
  EXPECT_EQ(x.finished, y.finished);
  ASSERT_FALSE(x.trace.empty());
  EXPECT_EQ(x.trace, y.trace);
}

}  // namespace
}  // namespace storm::fabric
