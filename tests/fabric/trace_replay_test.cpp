// TraceReplayer: parsing a recorded sink byte stream (and rejecting
// records no sink could have written), rebuilding the fault schedule
// from its Fault notes, and replaying a faulty run to a byte-identical
// sink stream with a replay rule in place of the original lossy rule.
#include "fabric/trace_replay.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fabric/fault_campaign.hpp"
#include "fabric/fault_plan.hpp"
#include "fabric/trace_sink.hpp"
#include "storm/cluster.hpp"

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
  return
      [work](core::AppContext& ctx) -> Task<> { co_await ctx.compute(work); };
}

TEST(TraceReplayer, FromBytesRoundTripsEveryRecordField) {
  sim::Simulator sim(1);
  ClusterConfig cfg = ClusterConfig::es40(4);
  cfg.storm.quantum = 5_ms;
  Cluster cluster(sim, cfg);
  auto sink = std::make_shared<StructuredTraceSink>(sim);
  cluster.fabric().push(sink);
  cluster.submit({.binary_size = 1_MB, .npes = 8});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));

  const auto& recs = sink->records();
  ASSERT_FALSE(recs.empty());
  const std::optional<TraceReplayer> replayer =
      TraceReplayer::from_bytes(sink->bytes());
  ASSERT_TRUE(replayer.has_value());
  ASSERT_EQ(replayer->records().size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const TraceRecord& a = recs[i];
    const TraceRecord& b = replayer->records()[i];
    EXPECT_EQ(a.t_ns, b.t_ns);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.cls, b.cls);
    EXPECT_EQ(a.component, b.component);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst_first, b.dst_first);
    EXPECT_EQ(a.dst_count, b.dst_count);
    EXPECT_EQ(a.a, b.a);
    EXPECT_EQ(a.b, b.b);
  }
  // Trailing garbage smaller than one record is ignored.
  auto bytes = sink->bytes();
  bytes.resize(bytes.size() + kTraceRecordBytes / 2, 0xEE);
  EXPECT_EQ(TraceReplayer::from_bytes(bytes)->records().size(), recs.size());
}

/// The sink stream of a short run whose campaign crashes node 3 at
/// 40 ms and recovers it at 900 ms.
std::vector<std::uint8_t> record_campaign() {
  sim::Simulator sim(2);
  ClusterConfig cfg = ClusterConfig::es40(8);
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;
  Cluster cluster(sim, cfg);
  auto sink = std::make_shared<StructuredTraceSink>(sim);
  cluster.fabric().push(sink);

  FaultCampaign campaign;
  campaign.crash_node(3, 40_ms);
  campaign.recover_node(3, 900_ms);
  CampaignHooks hooks;
  hooks.crash_node = [&](int n) { cluster.crash_node(n); };
  hooks.recover_node = [&](int n) { cluster.recover_node(n); };
  campaign.arm(sim, &cluster.fabric(), std::move(hooks));

  // The workload outlasts the schedule so both notes land in the sink.
  cluster.submit(
      {.binary_size = 2_MB, .npes = 16, .program = compute_program(1200_ms)});
  EXPECT_TRUE(cluster.run_until_all_complete(120_sec));
  return sink->bytes();
}

TEST(TraceReplayer, CampaignRebuildsFromFaultNotes) {
  // An armed campaign announces itself in the structured trace; the
  // replayer must reconstruct the exact schedule from the notes alone.
  const std::optional<TraceReplayer> replayer =
      TraceReplayer::from_bytes(record_campaign());
  ASSERT_TRUE(replayer.has_value());
  FaultCampaign rebuilt = replayer->campaign();
  const auto& ev = rebuilt.events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].kind, FaultCampaign::EventKind::CrashNode);
  EXPECT_EQ(ev[0].node, 3);
  EXPECT_EQ(ev[0].at, 40_ms);
  EXPECT_EQ(ev[1].kind, FaultCampaign::EventKind::RecoverNode);
  EXPECT_EQ(ev[1].node, 3);
  EXPECT_EQ(ev[1].at, 900_ms);
}

/// Parse `bytes` and require the rejection `why` for record `index`.
void expect_rejected(const std::vector<std::uint8_t>& bytes, std::size_t index,
                     const std::string& why) {
  std::string error;
  EXPECT_FALSE(TraceReplayer::from_bytes(bytes, &error).has_value());
  EXPECT_EQ(error, "record " + std::to_string(index) + ": " + why);
}

/// Index of the first Fault note in a recorded stream.
std::size_t first_fault_note(const std::vector<std::uint8_t>& bytes) {
  const std::vector<TraceRecord> recs =
      TraceReplayer::from_bytes(bytes).value().records();
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].op_kind() == OpKind::Note &&
        recs[i].msg_class() == MsgClass::Fault) {
      return i;
    }
  }
  ADD_FAILURE() << "no Fault note recorded";
  return 0;
}

TEST(TraceReplayer, RejectsUnknownOpKind) {
  std::vector<std::uint8_t> bytes = record_campaign();
  bytes[3 * kTraceRecordBytes + 8] = kOpKindCount;
  expect_rejected(bytes, 3, "unknown op kind");
}

TEST(TraceReplayer, RejectsUnknownMessageClass) {
  std::vector<std::uint8_t> bytes = record_campaign();
  bytes[5 * kTraceRecordBytes + 9] = 0xFF;
  expect_rejected(bytes, 5, "unknown message class");
}

TEST(TraceReplayer, RejectsUnknownComponent) {
  std::vector<std::uint8_t> bytes = record_campaign();
  bytes[10] = kComponentCount;
  expect_rejected(bytes, 0, "unknown component");
}

TEST(TraceReplayer, RejectsUnknownFaultKind) {
  std::vector<std::uint8_t> bytes = record_campaign();
  const std::size_t i = first_fault_note(bytes);
  bytes[i * kTraceRecordBytes + 24] = 3;  // one past CrashPrimaryMm
  expect_rejected(bytes, i, "unknown fault kind");
  bytes[i * kTraceRecordBytes + 31] = 0x80;  // negative kind
  expect_rejected(bytes, i, "unknown fault kind");
}

TEST(TraceReplayer, RejectsFaultNodeOutsideInt) {
  std::vector<std::uint8_t> bytes = record_campaign();
  const std::size_t i = first_fault_note(bytes);
  bytes[i * kTraceRecordBytes + 36] = 1;  // node word = 3 + 2^32
  expect_rejected(bytes, i, "fault node out of range");
}

TEST(TraceReplayer, ReplaysDropDecisionsWithoutTheInjector) {
  // Record a run whose strobe losses come from a seeded lossy rule;
  // replay it with a replay rule alone. The drops land at the same
  // positions, so the replay's sink stream is byte-identical.
  std::vector<std::uint8_t> recorded;
  std::int64_t dropped = 0;
  {
    sim::Simulator sim(3);
    auto plan = std::make_shared<FaultPlan>(sim, sim.rng().fork(0xD0));
    plan->add(FaultRule::lossy(MsgClass::Strobe, 0.05));
    auto sink = std::make_shared<StructuredTraceSink>(sim);
    ClusterConfig cfg = ClusterConfig::es40(8);
    cfg.app_cpus_per_node = 2;
    cfg.storm.quantum = 10_ms;
    Cluster cluster(sim, cfg);
    cluster.fabric().push(plan);
    cluster.fabric().push(sink);
    cluster.submit(
        {.binary_size = 1_MB, .npes = 16, .program = compute_program(400_ms)});
    ASSERT_TRUE(cluster.run_until_all_complete(120_sec));
    dropped = plan->rule(0).hits();
    recorded = sink->bytes();
  }
  ASSERT_GT(dropped, 0) << "fault load never materialised";
  ASSERT_FALSE(recorded.empty());

  const std::optional<TraceReplayer> replayer =
      TraceReplayer::from_bytes(recorded);
  ASSERT_TRUE(replayer.has_value());
  sim::Simulator sim(3);
  // The recording forked the plan's rng off the master stream; the
  // replay must mirror every master-stream draw to stay on the
  // recording's timeline, so fork (and discard) the same stream.
  [[maybe_unused]] const sim::Rng mirror = sim.rng().fork(0xD0);
  auto plan = std::make_shared<FaultPlan>(sim);
  plan->add(FaultRule::replay(replayer->records()));
  auto sink = std::make_shared<StructuredTraceSink>(sim);
  ClusterConfig cfg = ClusterConfig::es40(8);
  cfg.app_cpus_per_node = 2;
  cfg.storm.quantum = 10_ms;
  Cluster cluster(sim, cfg);
  cluster.fabric().push(plan);
  cluster.fabric().push(sink);
  cluster.submit(
      {.binary_size = 1_MB, .npes = 16, .program = compute_program(400_ms)});
  ASSERT_TRUE(cluster.run_until_all_complete(120_sec));

  EXPECT_EQ(plan->rule(0).mismatches(), 0u);
  EXPECT_EQ(plan->rule(0).position(), replayer->records().size());
  EXPECT_EQ(plan->rule(0).hits(), dropped);
  EXPECT_EQ(sink->bytes(), recorded);
}

TEST(TraceReplayer, MismatchedReplayIsCountedNotDropped) {
  // Feed a recording of one workload into a replay of a different one:
  // the replayer must flag the divergence instead of corrupting the
  // run with misapplied drops.
  std::vector<std::uint8_t> recorded;
  {
    sim::Simulator sim(4);
    ClusterConfig cfg = ClusterConfig::es40(4);
    cfg.storm.quantum = 5_ms;
    Cluster cluster(sim, cfg);
    auto sink = std::make_shared<StructuredTraceSink>(sim);
    cluster.fabric().push(sink);
    cluster.submit({.binary_size = 2_MB, .npes = 8});
    ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
    recorded = sink->bytes();
  }

  const std::optional<TraceReplayer> replayer =
      TraceReplayer::from_bytes(recorded);
  ASSERT_TRUE(replayer.has_value());
  sim::Simulator sim(4);
  ClusterConfig cfg = ClusterConfig::es40(4);
  cfg.storm.quantum = 5_ms;
  Cluster cluster(sim, cfg);
  auto plan = std::make_shared<FaultPlan>(sim);
  plan->add(FaultRule::replay(replayer->records()));
  cluster.fabric().push(plan);
  cluster.submit({.binary_size = 1_MB, .npes = 4});  // different workload
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
  EXPECT_GT(plan->rule(0).mismatches(), 0u);
  EXPECT_EQ(plan->rule(0).hits(), 0);
}

TEST(TraceReplayer, ReplayStepsPastEarlierDrops) {
  // The replay rule keeps lockstep with every envelope of the recorded
  // kinds, notes included, even ones an earlier rule already dropped.
  sim::Simulator sim;
  const Envelope hb{OpKind::CommandDeliver, Component::MM,
                    ControlMessage::heartbeat(1), 0, net::NodeRange{2, 1}, 0};
  const Envelope note{OpKind::Note, Component::MM,
                      ControlMessage::launch_report(7), 0,
                      net::NodeRange{0, 1}, 0};
  std::vector<TraceRecord> script(3);
  for (TraceRecord& r : script) {
    r.op = static_cast<std::uint8_t>(hb.op);
    r.cls = static_cast<std::uint8_t>(hb.cls());
    r.src = 0;
    r.dst_first = 2;
    r.dst_count = 1;
    r.a = 1;
  }
  script[1].op = static_cast<std::uint8_t>(OpKind::Note);
  script[1].cls = static_cast<std::uint8_t>(MsgClass::LaunchReport);
  script[1].dst_first = 0;
  script[1].a = 7;
  script[2].flags = TraceRecord::kDropped;
  FaultPlan plan(sim);
  plan.add(FaultRule::drop_next(MsgClass::Heartbeat, 2));
  plan.add(FaultRule::replay(script));
  for (const Envelope& e : {hb, note, hb}) {
    Action a;
    plan.apply(e, a);
    EXPECT_TRUE(a.drop || e.op == OpKind::Note);
  }
  EXPECT_EQ(plan.rule(0).hits(), 1);
  EXPECT_EQ(plan.rule(1).position(), 3u);
  EXPECT_EQ(plan.rule(1).mismatches(), 0u);
  EXPECT_EQ(plan.rule(1).hits(), 1);
}

}  // namespace
}  // namespace storm::fabric
