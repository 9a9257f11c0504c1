// Whole-cluster properties of the fabric: a no-op middleware chain
// reproduces the raw-mechanism timings exactly, and faulty runs are
// deterministic — two executions with the same seed produce
// byte-identical structured traces.
#include <gtest/gtest.h>

#include <functional>
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
using sim::SimTime;
using sim::Task;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

core::AppProgram compute_program(SimTime work) {
  return [work](core::AppContext& ctx) -> Task<> { co_await ctx.compute(work); };
}

TEST(FabricPassThrough, NoopChainReproducesLaunchTimesExactly) {
  // The same 4 MB launch with (a) an empty chain and (b) a chain of
  // middleware that take no action must agree to the nanosecond: the
  // fabric adds decision points, never modeled time.
  auto run = [](bool with_noop_chain) {
    sim::Simulator sim;
    ClusterConfig cfg = ClusterConfig::es40(16);
    cfg.storm.quantum = 1_ms;
    Cluster cluster(sim, cfg);
    if (with_noop_chain) {
      // Probability-zero and zero-delay rules: decide every envelope,
      // consume no randomness, change nothing.
      auto plan = std::make_shared<FaultPlan>(sim, sim.rng().fork(99));
      for (int c = 0; c < kMsgClassCount; ++c) {
        plan->add(FaultRule::lossy(static_cast<MsgClass>(c), 0.0));
        plan->add(FaultRule::jitter(static_cast<MsgClass>(c),
                                    FaultRule::Dist::Constant, {}, {}));
      }
      auto sink = std::make_shared<StructuredTraceSink>(sim);
      cluster.fabric().push(plan);
      cluster.fabric().push(sink);
    }
    const JobId id = cluster.submit({.binary_size = 4_MB, .npes = 64});
    EXPECT_TRUE(cluster.run_until_all_complete(60_sec));
    return cluster.job(id).times();
  };

  const auto plain = run(false);
  const auto noop = run(true);
  EXPECT_EQ(plain.transfer_start, noop.transfer_start);
  EXPECT_EQ(plain.transfer_done, noop.transfer_done);
  EXPECT_EQ(plain.launch_issued, noop.launch_issued);
  EXPECT_EQ(plain.started, noop.started);
  EXPECT_EQ(plain.finished, noop.finished);
}

TEST(FabricPassThrough, NoopChainReproducesHeadlineLaunch) {
  // Section 3.1.1 headline (12 MB on 64 nodes: ~96 ms send, ~110 ms
  // launch) holds with a full middleware chain interposed.
  sim::Simulator sim;
  ClusterConfig cfg = ClusterConfig::es40(64);
  cfg.storm.quantum = 1_ms;
  Cluster cluster(sim, cfg);
  auto plan = std::make_shared<FaultPlan>(sim, sim.rng().fork(1));
  plan->add(FaultRule::lossy(MsgClass::LaunchChunk, 0.0));
  auto sink = std::make_shared<StructuredTraceSink>(sim);
  cluster.fabric().push(plan);
  cluster.fabric().push(sink);

  const JobId id = cluster.submit({.binary_size = 12_MB, .npes = 256});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
  const auto& t = cluster.job(id).times();
  EXPECT_NEAR(t.send_time().to_millis(), 96.0, 15.0);
  EXPECT_NEAR(t.launch_time().to_millis(), 110.0, 25.0);

  // The sink saw the whole control plane: the prepare + launch
  // multicasts, per-chunk transfers, flow-control queries.
  EXPECT_GT(sink->count(MsgClass::LaunchChunk), 0u);
  EXPECT_EQ(sink->count(MsgClass::Launch, OpKind::CommandMulticast), 1u);
  EXPECT_EQ(sink->count(MsgClass::PrepareTransfer, OpKind::CommandMulticast),
            1u);
  EXPECT_EQ(plan->rule(0).hits(), 0);
}

struct FaultyRun {
  std::vector<std::uint8_t> trace;
  std::vector<SimTime> finished;
  int completed = 0;
  std::int64_t strobes_dropped = 0;
};

FaultyRun faulty_gang_run(
    const std::function<void(sim::Simulator&, Cluster&)>& add_middleware) {
  sim::Simulator sim;
  ClusterConfig cfg = ClusterConfig::es40(8);
  cfg.app_cpus_per_node = 2;
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;
  Cluster cluster(sim, cfg);
  add_middleware(sim, cluster);

  const JobId a = cluster.submit(
      {.binary_size = 1_MB, .npes = 16, .program = compute_program(500_ms)});
  const JobId b = cluster.submit(
      {.binary_size = 1_MB, .npes = 16, .program = compute_program(500_ms)});
  EXPECT_TRUE(cluster.run_until_all_complete(120_sec));

  FaultyRun out;
  out.completed = cluster.mm().completed_count();
  out.finished = {cluster.job(a).times().finished,
                  cluster.job(b).times().finished};
  return out;
}

TEST(FabricDeterminism, SameSeedStrobeLossIsByteIdentical) {
  auto run = [] {
    FaultyRun out;
    std::shared_ptr<FaultPlan> plan;
    std::shared_ptr<StructuredTraceSink> sink;
    out = faulty_gang_run([&](sim::Simulator& sim, Cluster& cluster) {
      plan = std::make_shared<FaultPlan>(sim, sim.rng().fork(0xD1CE));
      plan->add(FaultRule::lossy(MsgClass::Strobe, 0.02));
      sink = std::make_shared<StructuredTraceSink>(sim);
      cluster.fabric().push(plan);
      cluster.fabric().push(sink);
    });
    out.strobes_dropped = plan->rule(0).hits();
    out.trace = sink->bytes();
    return out;
  };

  const FaultyRun x = run();
  const FaultyRun y = run();

  // The fault load was real and the jobs survived it.
  EXPECT_GT(x.strobes_dropped, 0);
  EXPECT_EQ(x.completed, 2);
  // Byte-identical traces and identical timings across same-seed runs.
  EXPECT_EQ(x.strobes_dropped, y.strobes_dropped);
  EXPECT_EQ(x.finished, y.finished);
  ASSERT_FALSE(x.trace.empty());
  EXPECT_EQ(x.trace, y.trace);
}

TEST(FabricDeterminism, SameSeedJitterIsByteIdentical) {
  auto run = [] {
    FaultyRun out;
    std::shared_ptr<StructuredTraceSink> sink;
    out = faulty_gang_run([&](sim::Simulator& sim, Cluster& cluster) {
      auto plan = std::make_shared<FaultPlan>(sim, sim.rng().fork(0xC0DE));
      plan->add(FaultRule::jitter(MsgClass::Strobe, FaultRule::Dist::Uniform,
                                  5_us, 50_us));
      plan->add(FaultRule::jitter(MsgClass::LaunchChunk,
                                  FaultRule::Dist::Exponential, 0_us, 20_us));
      sink = std::make_shared<StructuredTraceSink>(sim);
      cluster.fabric().push(plan);
      cluster.fabric().push(sink);
    });
    out.trace = sink->bytes();
    return out;
  };

  const FaultyRun x = run();
  const FaultyRun y = run();
  EXPECT_EQ(x.completed, 2);
  EXPECT_EQ(x.finished, y.finished);
  ASSERT_FALSE(x.trace.empty());
  EXPECT_EQ(x.trace, y.trace);
}

}  // namespace
}  // namespace storm::fabric
