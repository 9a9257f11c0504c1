// MechanismFabric middleware-chain mechanics, exercised against a mock
// mech::Mechanisms so every inner call is observable.
#include "fabric/fabric.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "fabric/fault_plan.hpp"
#include "fabric/trace_sink.hpp"
#include "sim/simulator.hpp"

namespace storm::fabric {
namespace {

using namespace storm::sim::time_literals;

/// Records every inner call; no simulation semantics.
class MockMechanisms final : public mech::Mechanisms {
 public:
  std::string name() const override { return "mock"; }
  int nodes() const override { return 8; }

  void xfer_and_signal(int src, net::NodeRange dsts, sim::Bytes bytes,
                       net::BufferPlace, net::EventAddr,
                       net::EventAddr) override {
    xfers.push_back({src, dsts.first, dsts.count, bytes});
  }
  bool test_event(int, net::EventAddr) override {
    ++test_events;
    return true;
  }
  sim::Task<> wait_event(int, net::EventAddr) override {
    ++wait_events;
    co_return;
  }
  sim::Task<bool> compare_and_write(int, net::NodeRange, net::GlobalAddr,
                                    net::Compare, std::int64_t, net::GlobalAddr,
                                    std::int64_t) override {
    ++caws;
    co_return caw_result;
  }
  void write_local(int, net::GlobalAddr, std::int64_t) override {
    ++write_locals;
  }
  std::int64_t read_local(int, net::GlobalAddr) const override { return 0; }
  void signal_local(int, net::EventAddr, int) override { ++signal_locals; }
  sim::SimTime caw_latency(int) const override { return 1_us; }
  sim::Bandwidth xfer_aggregate_bandwidth(int) const override {
    return sim::Bandwidth::mb_per_s(100);
  }

  struct Xfer {
    int src;
    int dst_first;
    int dst_count;
    sim::Bytes bytes;
  };
  std::vector<Xfer> xfers;
  int test_events = 0;
  int wait_events = 0;
  int caws = 0;
  int write_locals = 0;
  int signal_locals = 0;
  bool caw_result = true;
};

/// Middleware scripted per test: applies a fixed Action to matching
/// envelopes and logs everything it sees.
class Scripted final : public Middleware {
 public:
  std::string_view name() const override { return "scripted"; }

  void apply(const Envelope& e, Action& a) override {
    seen.push_back(e);
    if (!matches(e)) return;
    if (drop) a.drop = true;
    a.duplicates += duplicates;
    a.delay += delay;
  }
  void observe(const Envelope& e, const Action& a) override {
    observed.push_back({e, a});
  }

  bool matches(const Envelope& e) const {
    if (match_op && e.op != *match_op) return false;
    if (match_node >= 0 && e.dsts.first != match_node) return false;
    return true;
  }

  // script
  std::optional<OpKind> match_op;
  int match_node = -1;
  bool drop = false;
  int duplicates = 0;
  sim::SimTime delay{};

  // log
  std::vector<Envelope> seen;
  std::vector<std::pair<Envelope, Action>> observed;
};

struct FabricFixture {
  sim::Simulator sim;
  MockMechanisms mock;
  MechanismFabric fab{sim, mock};
};

TEST(MechanismFabric, EmptyChainPassesThrough) {
  FabricFixture f;
  EXPECT_TRUE(f.fab.chain_empty());
  EXPECT_EQ(f.fab.name(), "fabric(mock)");
  EXPECT_EQ(f.fab.nodes(), 8);

  f.fab.xfer_and_signal(0, net::NodeRange{1, 4}, 64, net::BufferPlace::NicMemory,
                        mech::kNoEvent, mech::kNoEvent);
  ASSERT_EQ(f.mock.xfers.size(), 1u);
  EXPECT_EQ(f.mock.xfers[0].dst_count, 4);

  f.fab.write_local(2, 0, 7);
  EXPECT_EQ(f.mock.write_locals, 1);
  EXPECT_TRUE(f.fab.test_event(2, 0));

  bool result = false;
  auto probe = [&]() -> sim::Task<> {
    result = co_await f.fab.compare_and_write(0, net::NodeRange{0, 8}, 0,
                                              net::Compare::GE, 1,
                                              mech::kNoWrite, 0);
  };
  f.sim.spawn(probe());
  f.sim.run();
  EXPECT_TRUE(result);
  EXPECT_EQ(f.mock.caws, 1);
}

TEST(MechanismFabric, DropSuppressesXfer) {
  FabricFixture f;
  auto mw = std::make_shared<Scripted>();
  mw->match_op = OpKind::Xfer;
  mw->drop = true;
  f.fab.push(mw);

  f.fab.xfer_and_signal(Component::MM, ControlMessage::strobe(1), 0,
                        net::NodeRange{0, 8}, 64, net::BufferPlace::NicMemory,
                        1, mech::kNoEvent);
  EXPECT_TRUE(f.mock.xfers.empty());
  ASSERT_EQ(mw->observed.size(), 1u);
  EXPECT_TRUE(mw->observed[0].second.drop);
  EXPECT_EQ(mw->observed[0].first.cls(), MsgClass::Strobe);
}

TEST(MechanismFabric, DroppedCawReadsConditionNotMet) {
  FabricFixture f;
  f.mock.caw_result = true;  // the wire would say yes…
  auto mw = std::make_shared<Scripted>();
  mw->match_op = OpKind::CompareAndWrite;
  mw->drop = true;
  f.fab.push(mw);

  bool result = true;
  auto probe = [&]() -> sim::Task<> {
    result = co_await f.fab.compare_and_write(
        Component::MM, ControlMessage::heartbeat(3), 0, net::NodeRange{0, 8}, 0,
        net::Compare::GE, 1, mech::kNoWrite, 0);
  };
  f.sim.spawn(probe());
  f.sim.run();
  EXPECT_FALSE(result);        // …but the lost query reads as "not met"
  EXPECT_EQ(f.mock.caws, 0);   // and never reaches the network
}

TEST(MechanismFabric, DelayDefersXferBySimTime) {
  FabricFixture f;
  auto mw = std::make_shared<Scripted>();
  mw->match_op = OpKind::Xfer;
  mw->delay = 5_us;
  f.fab.push(mw);

  f.fab.xfer_and_signal(Component::MM, ControlMessage::strobe(0), 0,
                        net::NodeRange{0, 8}, 64, net::BufferPlace::NicMemory,
                        1, mech::kNoEvent);
  EXPECT_TRUE(f.mock.xfers.empty());  // not issued yet
  f.sim.run();
  EXPECT_EQ(f.mock.xfers.size(), 1u);
  EXPECT_EQ(f.sim.now(), sim::SimTime::micros(5));
}

TEST(MechanismFabric, DuplicateRepeatsXfer) {
  FabricFixture f;
  auto mw = std::make_shared<Scripted>();
  mw->match_op = OpKind::Xfer;
  mw->duplicates = 2;
  f.fab.push(mw);

  f.fab.xfer_and_signal(Component::MM, ControlMessage::strobe(0), 0,
                        net::NodeRange{0, 8}, 64, net::BufferPlace::NicMemory,
                        1, mech::kNoEvent);
  EXPECT_EQ(f.mock.xfers.size(), 3u);  // original + 2 duplicates
}

TEST(MechanismFabric, ChainActionsAccumulate) {
  FabricFixture f;
  auto first = std::make_shared<Scripted>();
  first->match_op = OpKind::Xfer;
  first->delay = 2_us;
  auto second = std::make_shared<Scripted>();
  second->match_op = OpKind::Xfer;
  second->delay = 3_us;
  f.fab.push(first);
  f.fab.push(second);

  f.fab.xfer_and_signal(Component::MM, ControlMessage::strobe(0), 0,
                        net::NodeRange{0, 8}, 64, net::BufferPlace::NicMemory,
                        1, mech::kNoEvent);
  f.sim.run();
  EXPECT_EQ(f.sim.now(), sim::SimTime::micros(5));  // 2 + 3 accumulated
  // Both middleware observed the *final* verdict.
  ASSERT_EQ(first->observed.size(), 1u);
  EXPECT_EQ(first->observed[0].second.delay, sim::SimTime::micros(5));
}

TEST(MechanismFabric, MulticastDeliversPerNodeAndDropsSelectively) {
  FabricFixture f;
  auto mw = std::make_shared<Scripted>();
  mw->match_op = OpKind::CommandDeliver;
  mw->match_node = 2;
  mw->drop = true;
  f.fab.push(mw);

  int wire_calls = 0;
  std::vector<int> delivered;
  auto run = [&]() -> sim::Task<> {
    co_await f.fab.multicast_command(
        Component::MM, ControlMessage::launch(42), 0, net::NodeRange{0, 4}, 64,
        [&](int, net::NodeRange, sim::Bytes) -> sim::Task<> {
          ++wire_calls;
          co_return;
        },
        [&](net::NodeRange dsts, const ControlMessage& m,
            fabric::TraceContext) {
          EXPECT_EQ(m.u.launch.job, 42);
          for (int n = dsts.first; n <= dsts.last(); ++n) {
            delivered.push_back(n);
          }
        });
  };
  f.sim.spawn(run());
  f.sim.run();

  EXPECT_EQ(wire_calls, 1);
  EXPECT_EQ(delivered, (std::vector<int>{0, 1, 3}));  // node 2 lost
  // 1 multicast envelope + 4 per-node delivery envelopes.
  EXPECT_EQ(mw->seen.size(), 5u);
}

TEST(MechanismFabric, DroppedMulticastLosesAllDeliveries) {
  FabricFixture f;
  auto mw = std::make_shared<Scripted>();
  mw->match_op = OpKind::CommandMulticast;
  mw->drop = true;
  f.fab.push(mw);

  int wire_calls = 0;
  int delivered = 0;
  auto run = [&]() -> sim::Task<> {
    co_await f.fab.multicast_command(
        Component::MM, ControlMessage::strobe(1), 0, net::NodeRange{0, 4}, 64,
        [&](int, net::NodeRange, sim::Bytes) -> sim::Task<> {
          ++wire_calls;
          co_return;
        },
        [&](net::NodeRange dsts, const ControlMessage&,
            fabric::TraceContext) { delivered += dsts.count; });
  };
  f.sim.spawn(run());
  f.sim.run();
  EXPECT_EQ(wire_calls, 0);
  EXPECT_EQ(delivered, 0);
}

TEST(MechanismFabric, LocalOpsAreObserveOnly) {
  FabricFixture f;
  auto mw = std::make_shared<Scripted>();
  mw->drop = true;  // drop *everything* the chain will let it
  f.fab.push(mw);

  // Local NIC operations still reach the inner mechanisms: fault
  // actions are not applied to them.
  f.fab.write_local(1, 0, 9);
  f.fab.signal_local(1, 0);
  EXPECT_TRUE(f.fab.test_event(1, 0));
  auto run = [&]() -> sim::Task<> { co_await f.fab.wait_event(1, 0); };
  f.sim.spawn(run());
  f.sim.run();

  EXPECT_EQ(f.mock.write_locals, 1);
  EXPECT_EQ(f.mock.signal_locals, 1);
  EXPECT_EQ(f.mock.test_events, 1);
  EXPECT_EQ(f.mock.wait_events, 1);
  // …and every one of them was observed with a clean verdict.
  ASSERT_EQ(mw->observed.size(), 4u);
  for (const auto& [e, a] : mw->observed) EXPECT_FALSE(a.drop);
}

Envelope strobe_xfer() {
  return Envelope{OpKind::Xfer, Component::MM, ControlMessage::strobe(0), 0,
                  net::NodeRange{0, 8}, 64};
}

Envelope delivery(const ControlMessage& m, int src, int node) {
  return Envelope{OpKind::CommandDeliver, Component::MM, m, src,
                  net::NodeRange{node, 1}, 0};
}

Action decide(FaultPlan& plan, const Envelope& e) {
  Action a;
  plan.apply(e, a);
  return a;
}

TEST(FaultRuleLossy, SameSeedSameDecisions) {
  // Rng has value semantics: two plans built from copies of the same
  // stream make identical decisions. (Rng::fork advances the parent,
  // so two fork(salt) calls deliberately differ.)
  sim::Simulator sim;
  sim::Rng master(0x5707'11E5ULL);
  FaultPlan x(sim, master);
  FaultPlan y(sim, master);
  x.add(FaultRule::lossy(MsgClass::Strobe, 0.3));
  y.add(FaultRule::lossy(MsgClass::Strobe, 0.3));

  const Envelope e{OpKind::CommandMulticast, Component::MM,
                   ControlMessage::strobe(0), 0, net::NodeRange{0, 8}, 64};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(decide(x, e).drop, decide(y, e).drop);
  }
  EXPECT_EQ(x.rule(0).hits(), y.rule(0).hits());
  EXPECT_GT(x.rule(0).hits(), 0);
  EXPECT_LT(x.rule(0).hits(), 200);
}

TEST(FaultRuleLossy, ZeroProbabilityConsumesNoRandomness) {
  // Rules with probability 0 or with no randomness at all (constant
  // delay, a zero-spread uniform draw, cuts, one-way and armed drops
  // that never match) match every envelope without touching the
  // plan's stream.
  sim::Simulator sim;
  sim::Rng master(0x5707'11E5ULL);
  FaultPlan x(sim, master);
  x.add(FaultRule::lossy(MsgClass::Strobe, 0.0));
  x.add(FaultRule::jitter(MsgClass::Strobe, FaultRule::Dist::Constant, 1_us,
                          {}));
  x.add(FaultRule::jitter(MsgClass::Strobe, FaultRule::Dist::Uniform, 2_us,
                          {}));
  x.add(FaultRule::partition({0, 1, 2, 3, 4, 5, 6, 7}, {},
                             sim::SimTime::max()));
  const Envelope e = strobe_xfer();
  for (int i = 0; i < 100; ++i) {
    const Action a = decide(x, e);
    EXPECT_FALSE(a.drop);
    EXPECT_EQ(a.delay, 3_us);
  }
  EXPECT_EQ(x.rule(0).hits(), 0);
  EXPECT_EQ(x.rule(1).hits(), 100);
  EXPECT_EQ(x.rule(3).hits(), 0);
  // After 100 envelopes x's stream is untouched: it still agrees
  // decision-for-decision with a pristine copy once both carry the
  // same non-zero rule.
  FaultPlan z(sim, master);
  x.add(FaultRule::lossy(MsgClass::Strobe, 0.5));
  z.add(FaultRule::lossy(MsgClass::Strobe, 0.5));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(decide(x, e).drop, decide(z, e).drop);
  }
  EXPECT_EQ(x.rule(4).hits(), z.rule(0).hits());
}

TEST(FaultRuleDropNext, TargetedDropHitsOnceOnMatchingNode) {
  sim::Simulator sim;
  FaultPlan x(sim);
  x.add(FaultRule::drop_next(MsgClass::Heartbeat, /*node=*/3));

  const ControlMessage hb = ControlMessage::heartbeat(0);
  EXPECT_FALSE(decide(x, delivery(hb, 0, 2)).drop);  // wrong node
  EXPECT_FALSE(
      decide(x, delivery(ControlMessage::strobe(0), 0, 3)).drop);  // class
  EXPECT_TRUE(decide(x, delivery(hb, 0, 3)).drop);   // armed shot fires
  EXPECT_FALSE(decide(x, delivery(hb, 0, 3)).drop);  // one-shot: disarmed
  EXPECT_EQ(x.rule(0).hits(), 1);
}

TEST(FaultRuleJitter, ModelsAndScope) {
  sim::Simulator sim;
  FaultPlan p(sim, sim.rng().fork(2));
  p.add(FaultRule::jitter(MsgClass::Strobe, FaultRule::Dist::Constant, 10_us,
                          {}));
  p.add(FaultRule::jitter(MsgClass::Heartbeat, FaultRule::Dist::Uniform, 1_us,
                          4_us));

  EXPECT_EQ(decide(p, Envelope{OpKind::CommandMulticast, Component::MM,
                               ControlMessage::strobe(0), 0,
                               net::NodeRange{0, 8}, 64})
                .delay,
            sim::SimTime::micros(10));

  for (int i = 0; i < 50; ++i) {
    const Action h = decide(p, Envelope{OpKind::CommandMulticast,
                                        Component::MM,
                                        ControlMessage::heartbeat(i), 0,
                                        net::NodeRange{0, 8}, 64});
    EXPECT_GE(h.delay, sim::SimTime::micros(1));
    EXPECT_LT(h.delay, sim::SimTime::micros(5));
  }
  EXPECT_EQ(p.rule(1).hits(), 50);

  // Per-node deliveries are not jittered (a multicast is perturbed
  // once, not once per destination).
  EXPECT_EQ(decide(p, delivery(ControlMessage::strobe(0), 0, 3)).delay,
            sim::SimTime::zero());
}

TEST(FaultPlan, CutAndOneWayStopAtFirstDrop) {
  // MM (node 0) -> node 5 crosses the island {4..7} cut and the one-way
  // 0 -> 5 rule alike. Only the first rule in the table takes the hit,
  // and the lossy rule behind both never draws for a dropped envelope.
  sim::Simulator sim;
  sim::Rng master(0xC07ULL);
  auto build = [&](bool cut_first) {
    auto plan = std::make_unique<FaultPlan>(sim, master);
    const FaultRule cut = FaultRule::partition({4, 5, 6, 7}, {},
                                               sim::SimTime::max());
    const FaultRule one_way = FaultRule::one_way({0}, {5});
    plan->add(cut_first ? cut : one_way);
    plan->add(cut_first ? one_way : cut);
    plan->add(FaultRule::lossy(MsgClass::Heartbeat, 0.5));
    return plan;
  };
  const ControlMessage hb = ControlMessage::heartbeat(1);
  for (const bool cut_first : {true, false}) {
    std::unique_ptr<FaultPlan> plan = build(cut_first);
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(decide(*plan, delivery(hb, 0, 5)).drop);
    }
    EXPECT_EQ(plan->rule(0).hits(), 20);
    EXPECT_EQ(plan->rule(1).hits(), 0);
    EXPECT_EQ(plan->rule(2).hits(), 0);
    // Its stream is still pristine: the lossy rule now decides node 1's
    // deliveries (neither cut nor one-way) exactly like a fresh plan's.
    FaultPlan fresh(sim, master);
    fresh.add(FaultRule::lossy(MsgClass::Heartbeat, 0.5));
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(decide(*plan, delivery(hb, 0, 1)).drop,
                decide(fresh, delivery(hb, 0, 1)).drop);
    }
  }
}

TEST(FaultPlan, NodeFiltersFollowTheOperationKind) {
  sim::Simulator sim;
  FaultPlan plan(sim);
  const std::size_t silent = plan.add(FaultRule::silence(5));
  auto caw = [](int src, net::NodeRange dsts) {
    return Envelope{OpKind::CompareAndWrite, Component::MM,
                    ControlMessage::heartbeat(0), src, dsts, 0};
  };
  auto xfer = [](int src, net::NodeRange dsts) {
    return Envelope{OpKind::Xfer, Component::MM, ControlMessage::strobe(0),
                    src, dsts, 64};
  };
  // Sourced by the silenced node: every wire operation is lost.
  EXPECT_TRUE(decide(plan, xfer(5, {0, 2})).drop);
  // A CAW fails if any destination cannot answer ...
  EXPECT_TRUE(decide(plan, caw(0, {0, 8})).drop);
  EXPECT_FALSE(decide(plan, caw(0, {0, 4})).drop);
  // ... an XFER only when no destination can hear it ...
  EXPECT_FALSE(decide(plan, xfer(0, {4, 2})).drop);
  EXPECT_TRUE(decide(plan, xfer(0, {5, 1})).drop);
  // ... and a multicast's wire leg is left to its deliveries.
  EXPECT_FALSE(decide(plan, Envelope{OpKind::CommandMulticast, Component::MM,
                                     ControlMessage::strobe(0), 0,
                                     net::NodeRange{0, 8}, 64})
                   .drop);
  EXPECT_TRUE(decide(plan, delivery(ControlMessage::strobe(0), 0, 5)).drop);
  // Local NIC operations are never faulted.
  EXPECT_FALSE(decide(plan, Envelope{OpKind::TestEvent, Component::None,
                                     ControlMessage::generic(), 5,
                                     net::NodeRange{5, 1}, 0})
                   .drop);
  EXPECT_EQ(plan.rule(silent).hits(), 4);
}

TEST(FaultPlan, DuplicateAndExponentialDelayAccumulate) {
  sim::Simulator sim;
  FaultPlan plan(sim, sim.rng().fork(3));
  FaultRule dup = FaultRule::lossy(MsgClass::Strobe, 1.0);
  dup.act = FaultRule::Act::Duplicate;
  plan.add(dup);
  plan.add(dup);
  plan.add(FaultRule::jitter(MsgClass::Strobe, FaultRule::Dist::Exponential,
                             5_us, 20_us));
  bool spread = false;
  for (int i = 0; i < 50; ++i) {
    const Action a = decide(plan, strobe_xfer());
    EXPECT_FALSE(a.drop);
    EXPECT_EQ(a.duplicates, 2);
    EXPECT_GE(a.delay, 5_us);
    spread = spread || a.delay > 25_us;
  }
  EXPECT_TRUE(spread) << "an exponential draw never exceeded its mean";
}

TEST(StructuredTraceSink, RecordsVerdictsAndSerialises) {
  FabricFixture f;
  auto drop_hb = std::make_shared<Scripted>();
  drop_hb->match_op = OpKind::CompareAndWrite;
  drop_hb->drop = true;
  auto sink = std::make_shared<StructuredTraceSink>(f.sim);
  f.fab.push(drop_hb);
  f.fab.push(sink);

  f.fab.xfer_and_signal(Component::MM, ControlMessage::strobe(5), 0,
                        net::NodeRange{0, 8}, 64, net::BufferPlace::NicMemory,
                        1, mech::kNoEvent);
  auto probe = [&]() -> sim::Task<> {
    (void)co_await f.fab.compare_and_write(
        Component::MM, ControlMessage::heartbeat(3), 0, net::NodeRange{0, 8}, 0,
        net::Compare::GE, 1, mech::kNoWrite, 0);
  };
  f.sim.spawn(probe());
  f.sim.run();
  f.fab.note(Component::NM, 4, ControlMessage::launch(11));

  ASSERT_EQ(sink->records().size(), 3u);
  EXPECT_EQ(sink->count(MsgClass::Strobe), 1u);
  EXPECT_EQ(sink->count(MsgClass::Heartbeat, OpKind::CompareAndWrite), 1u);
  EXPECT_EQ(sink->dropped_count(MsgClass::Heartbeat), 1u);
  EXPECT_EQ(sink->dropped_count(MsgClass::Strobe), 0u);

  const TraceRecord& strobe = sink->records()[0];
  EXPECT_EQ(strobe.msg_class(), MsgClass::Strobe);
  EXPECT_EQ(strobe.comp(), Component::MM);
  EXPECT_EQ(strobe.a, 5);
  const TraceRecord& note = sink->records()[2];
  EXPECT_EQ(note.op_kind(), OpKind::Note);
  EXPECT_EQ(note.src, 4);
  EXPECT_EQ(note.a, 11);

  const auto bytes = sink->bytes();
  EXPECT_EQ(bytes.size(), 3 * kTraceRecordBytes);
  sink->clear();
  EXPECT_TRUE(sink->records().empty());
  EXPECT_TRUE(sink->bytes().empty());
}

TEST(StructuredTraceSink, HotPathOpsOffByDefault) {
  FabricFixture f;
  auto sink = std::make_shared<StructuredTraceSink>(f.sim);
  f.fab.push(sink);

  EXPECT_TRUE(f.fab.test_event(0, 0));
  f.fab.write_local(0, 0, 1);
  f.fab.signal_local(0, 0);
  EXPECT_TRUE(sink->records().empty());

  sink->set_recorded(OpKind::TestEvent, true);
  EXPECT_TRUE(f.fab.test_event(0, 0));
  EXPECT_EQ(sink->count(OpKind::TestEvent), 1u);
}

}  // namespace
}  // namespace storm::fabric
