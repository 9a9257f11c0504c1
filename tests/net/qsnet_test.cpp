#include "net/qsnet.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

namespace storm::net {
namespace {

using sim::Bandwidth;
using sim::SimTime;
using sim::Task;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

// ---------------------------------------------------------------------------
// Analytic broadcast-bandwidth model vs Table 4 of the paper.
// The paper's table was provided by Quadrics; our three-parameter fit
// (link payload rate, ack turnaround, wire delay) must land within a
// few percent on every cell.
// ---------------------------------------------------------------------------

struct Tab4Cell {
  int nodes;
  double cable_m;
  double mb_per_s;   // value printed in Table 4
  double tol_frac;   // acceptable relative error
};

// Prints the case as its test-ID suffix: CMake's test discovery puts
// the printed value in place of the gtest index, so the ctest name
// reads "/n64_cable100m" rather than the struct's raw bytes, padding included.
void PrintTo(const Tab4Cell& c, std::ostream* os) {
  *os << 'n' << c.nodes << "_cable" << c.cable_m << 'm';
}

class BroadcastModelTable4 : public ::testing::TestWithParam<Tab4Cell> {};

TEST_P(BroadcastModelTable4, MatchesPublishedCell) {
  const auto& c = GetParam();
  const Bandwidth bw =
      QsNet::model_broadcast_bandwidth(c.nodes, c.cable_m, QsNetParams{});
  EXPECT_NEAR(bw.to_mb_per_s(), c.mb_per_s, c.mb_per_s * c.tol_frac)
      << "nodes=" << c.nodes << " cable=" << c.cable_m;
}

INSTANTIATE_TEST_SUITE_P(
    Table4, BroadcastModelTable4,
    ::testing::Values(
        // Corners and representative interior cells of Table 4.
        Tab4Cell{4, 10, 319, 0.02}, Tab4Cell{4, 100, 222, 0.03},
        Tab4Cell{16, 10, 319, 0.02}, Tab4Cell{16, 40, 287, 0.04},
        Tab4Cell{64, 10, 312, 0.04}, Tab4Cell{64, 100, 185, 0.04},
        Tab4Cell{256, 20, 256, 0.05}, Tab4Cell{256, 100, 170, 0.04},
        Tab4Cell{1024, 10, 243, 0.05}, Tab4Cell{1024, 60, 187, 0.04},
        Tab4Cell{4096, 10, 218, 0.05}, Tab4Cell{4096, 100, 147, 0.04}));

TEST(BroadcastModel, MonotoneInNodesAndCable) {
  const QsNetParams p{};
  for (int nodes : {4, 16, 64, 256, 1024, 4096}) {
    double prev = 1e18;
    for (double cable : {10.0, 20.0, 40.0, 60.0, 80.0, 100.0}) {
      const double bw =
          QsNet::model_broadcast_bandwidth(nodes, cable, p).to_mb_per_s();
      EXPECT_LE(bw, prev + 1e-9);
      prev = bw;
    }
  }
  for (double cable : {10.0, 100.0}) {
    double prev = 1e18;
    for (int nodes : {4, 16, 64, 256, 1024, 4096}) {
      const double bw =
          QsNet::model_broadcast_bandwidth(nodes, cable, p).to_mb_per_s();
      EXPECT_LE(bw, prev + 1e-9);
      prev = bw;
    }
  }
}

TEST(BroadcastModel, PlacementCaps) {
  const QsNetParams p{};
  // Figure 7: 312 MB/s NIC-to-NIC vs 175 MB/s through main memory.
  const auto nic = QsNet::model_broadcast_bandwidth(64, 11.0, BufferPlace::NicMemory, p);
  const auto main = QsNet::model_broadcast_bandwidth(64, 11.0, BufferPlace::MainMemory, p);
  EXPECT_NEAR(nic.to_mb_per_s(), 312.0, 312 * 0.04);
  EXPECT_NEAR(main.to_mb_per_s(), 175.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Conditional (hardware barrier) latency vs Figure 9.
// ---------------------------------------------------------------------------

TEST(ConditionalLatency, MatchesFigure9Shape) {
  const QsNetParams p{};
  // ~4.5 us at trivial scale...
  const double lat1 =
      QsNet::model_conditional_latency(1, 2.0, p).to_micros();
  EXPECT_GT(lat1, 4.0);
  EXPECT_LT(lat1, 5.2);
  // ...~2 us growth out to 1024 nodes (the paper: "grows by a
  // negligible amount — about 2 us — across a 384X increase").
  const double lat1024 =
      QsNet::model_conditional_latency(1024, FatTree::floorplan_diameter_m(1024), p)
          .to_micros();
  EXPECT_GT(lat1024, lat1 + 0.5);
  EXPECT_LT(lat1024, lat1 + 3.0);
}

TEST(ConditionalLatency, MonotoneInNodes) {
  const QsNetParams p{};
  double prev = 0;
  for (int n : {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}) {
    const double lat =
        QsNet::model_conditional_latency(n, FatTree::floorplan_diameter_m(n), p)
            .to_micros();
    EXPECT_GE(lat, prev);
    prev = lat;
  }
}

// ---------------------------------------------------------------------------
// Simulated primitives
// ---------------------------------------------------------------------------

class QsNetFixture : public ::testing::Test {
 protected:
  sim::Simulator sim;
  QsNet net{sim, 64};
};

TEST_F(QsNetFixture, PutTakesLatencyPlusTransferTime) {
  SimTime done = SimTime::zero();
  auto t = [&]() -> Task<> {
    co_await net.put(0, 63, 1_MB);
    done = sim.now();
  };
  sim.spawn(t());
  sim.run();
  // 1 MiB at <= 230 MB/s (PCI-capped) is >= 4.5 ms; latency adds us.
  EXPECT_GT(done.to_millis(), 3.0);
  EXPECT_LT(done.to_millis(), 8.0);
}

TEST_F(QsNetFixture, PutLatencyScalesWithDistance) {
  SimTime near = SimTime::zero(), far = SimTime::zero();
  auto t = [&]() -> Task<> {
    SimTime t0 = sim.now();
    co_await net.put(0, 1, 0);  // zero-byte: latency only
    near = sim.now() - t0;
    t0 = sim.now();
    co_await net.put(0, 63, 0);
    far = sim.now() - t0;
  };
  sim.spawn(t());
  sim.run();
  EXPECT_GT(far, near);
}

TEST_F(QsNetFixture, BroadcastMainMemoryIsPciCapped) {
  SimTime done = SimTime::zero();
  auto t = [&]() -> Task<> {
    co_await net.broadcast(0, NodeRange{0, 64}, 12_MB,
                           BufferPlace::MainMemory);
    done = sim.now();
  };
  sim.spawn(t());
  sim.run();
  // 12 MiB at 175 MB/s ~ 71.9 ms (+70 us setup).
  EXPECT_NEAR(done.to_millis(), 12.0 * 1.048576 / 175.0 * 1000.0, 1.0);
}

TEST_F(QsNetFixture, BroadcastNicMemoryIsFaster) {
  SimTime t_nic = SimTime::zero(), t_main = SimTime::zero();
  auto t = [&]() -> Task<> {
    SimTime t0 = sim.now();
    co_await net.broadcast(0, NodeRange{0, 64}, 8_MB, BufferPlace::NicMemory);
    t_nic = sim.now() - t0;
    t0 = sim.now();
    co_await net.broadcast(0, NodeRange{0, 64}, 8_MB, BufferPlace::MainMemory);
    t_main = sim.now() - t0;
  };
  sim.spawn(t());
  sim.run();
  EXPECT_LT(t_nic, t_main);
}

TEST_F(QsNetFixture, FabricLoadDegradesBroadcast) {
  SimTime unloaded = SimTime::zero(), loaded = SimTime::zero();
  auto t = [&]() -> Task<> {
    SimTime t0 = sim.now();
    co_await net.broadcast(0, NodeRange{0, 64}, 4_MB, BufferPlace::MainMemory);
    unloaded = sim.now() - t0;
    auto tok = net.add_fabric_load(9.0);
    t0 = sim.now();
    co_await net.broadcast(0, NodeRange{0, 64}, 4_MB, BufferPlace::MainMemory);
    loaded = sim.now() - t0;
  };
  sim.spawn(t());
  sim.run();
  // Weight 9 background -> rate / 10.
  EXPECT_GT(loaded.to_seconds(), unloaded.to_seconds() * 8.0);
  EXPECT_LT(loaded.to_seconds(), unloaded.to_seconds() * 12.0);
}

TEST_F(QsNetFixture, GlobalWordsDefaultToZero) {
  EXPECT_EQ(net.read_word(5, 17), 0);
  net.write_word(5, 17, 42);
  EXPECT_EQ(net.read_word(5, 17), 42);
  EXPECT_EQ(net.read_word(6, 17), 0);  // per-node storage
}

TEST_F(QsNetFixture, ConditionalTrueWhenAllSatisfy) {
  for (int n = 0; n < 64; ++n) net.write_word(n, 1, 10);
  bool result = false;
  auto t = [&]() -> Task<> {
    result = co_await net.conditional(0, NodeRange{0, 64}, 1, Compare::GE, 10);
  };
  sim.spawn(t());
  sim.run();
  EXPECT_TRUE(result);
  EXPECT_GT(sim.now().to_micros(), 4.0);  // took the barrier latency
}

TEST_F(QsNetFixture, ConditionalFalseWhenOneLags) {
  for (int n = 0; n < 64; ++n) net.write_word(n, 1, 10);
  net.write_word(33, 1, 9);
  bool result = true;
  auto t = [&]() -> Task<> {
    result = co_await net.conditional(0, NodeRange{0, 64}, 1, Compare::GE, 10);
  };
  sim.spawn(t());
  sim.run();
  EXPECT_FALSE(result);
}

TEST_F(QsNetFixture, ConditionalComparators) {
  net.write_word(3, 2, 5);
  auto check = [&](Compare cmp, std::int64_t operand) {
    bool r = false;
    auto t = [&]() -> Task<> {
      r = co_await net.conditional(0, NodeRange{3, 1}, 2, cmp, operand);
    };
    sim.spawn(t());
    sim.run();
    return r;
  };
  EXPECT_TRUE(check(Compare::GE, 5));
  EXPECT_FALSE(check(Compare::GE, 6));
  EXPECT_TRUE(check(Compare::LT, 6));
  EXPECT_FALSE(check(Compare::LT, 5));
  EXPECT_TRUE(check(Compare::EQ, 5));
  EXPECT_FALSE(check(Compare::EQ, 4));
  EXPECT_TRUE(check(Compare::NE, 4));
  EXPECT_FALSE(check(Compare::NE, 5));
}

TEST_F(QsNetFixture, ConditionalWriteSetsAllNodes) {
  auto t = [&]() -> Task<> {
    co_await net.conditional_write(0, NodeRange{8, 16}, 3, 77);
  };
  sim.spawn(t());
  sim.run();
  for (int n = 8; n < 24; ++n) EXPECT_EQ(net.read_word(n, 3), 77);
  EXPECT_EQ(net.read_word(7, 3), 0);
  EXPECT_EQ(net.read_word(24, 3), 0);
}

TEST_F(QsNetFixture, FailedNodeBreaksConditional) {
  for (int n = 0; n < 64; ++n) net.write_word(n, 1, 1);
  net.fail_node(20);
  bool result = true;
  auto t = [&]() -> Task<> {
    result = co_await net.conditional(0, NodeRange{0, 64}, 1, Compare::GE, 1);
  };
  sim.spawn(t());
  sim.run();
  EXPECT_FALSE(result);
  net.recover_node(20);
  bool result2 = false;
  auto t2 = [&]() -> Task<> {
    result2 = co_await net.conditional(0, NodeRange{0, 64}, 1, Compare::GE, 1);
  };
  sim.spawn(t2());
  sim.run();
  EXPECT_TRUE(result2);
}

TEST_F(QsNetFixture, EventsCountSignals) {
  net.signal_local(4, 9, 2);
  EXPECT_TRUE(net.poll_event(4, 9));
  EXPECT_TRUE(net.poll_event(4, 9));
  EXPECT_FALSE(net.poll_event(4, 9));
}

TEST_F(QsNetFixture, WaitEventBlocksUntilSignalled) {
  SimTime woke = SimTime::zero();
  auto waiter = [&]() -> Task<> {
    co_await net.wait_event(7, 1);
    woke = sim.now();
  };
  auto signaller = [&]() -> Task<> {
    co_await sim.delay(3_ms);
    co_await net.signal_remote(0, 7, 1);
  };
  sim.spawn(waiter());
  sim.spawn(signaller());
  sim.run();
  EXPECT_GT(woke, 3_ms);            // signal latency added
  EXPECT_LT(woke, 3_ms + 10_us);
}

TEST_F(QsNetFixture, RemoteSignalToFailedNodeIsDropped) {
  net.fail_node(7);
  auto signaller = [&]() -> Task<> { co_await net.signal_remote(0, 7, 1); };
  sim.spawn(signaller());
  sim.run();
  EXPECT_FALSE(net.poll_event(7, 1));
}

TEST_F(QsNetFixture, SmallMessageBroadcastSkipsDmaSetup) {
  // Control messages (strobes, launch commands) ride the conditional
  // path: microseconds, not the 70 us DMA setup.
  SimTime t_small = SimTime::zero(), t_large = SimTime::zero();
  auto t = [&]() -> Task<> {
    SimTime t0 = sim.now();
    co_await net.broadcast(0, NodeRange{0, 64}, 64, BufferPlace::NicMemory);
    t_small = sim.now() - t0;
    t0 = sim.now();
    co_await net.broadcast(0, NodeRange{0, 64}, 64_KB,
                           BufferPlace::NicMemory);
    t_large = sim.now() - t0;
  };
  sim.spawn(t());
  sim.run();
  EXPECT_LT(t_small.to_micros(), 10.0);
  EXPECT_GT(t_large.to_micros(), 70.0);
}

TEST_F(QsNetFixture, SmallMessageLatencyScalesGently) {
  sim::Simulator s2;
  QsNet small_net(s2, 4);
  SimTime t4{};
  auto probe4 = [&]() -> Task<> {
    const SimTime t0 = s2.now();
    co_await small_net.broadcast(0, NodeRange{0, 4}, 64,
                                 BufferPlace::NicMemory);
    t4 = s2.now() - t0;
  };
  s2.spawn(probe4());
  s2.run();

  SimTime t64{};
  auto probe64 = [&]() -> Task<> {
    const SimTime t0 = sim.now();
    co_await net.broadcast(0, NodeRange{0, 64}, 64, BufferPlace::NicMemory);
    t64 = sim.now() - t0;
  };
  sim.spawn(probe64());
  sim.run();
  EXPECT_GT(t64, t4);
  EXPECT_LT(t64.to_micros(), t4.to_micros() + 2.0);
}

TEST_F(QsNetFixture, TrafficCountersAccumulate) {
  auto t = [&]() -> Task<> {
    co_await net.put(0, 1, 1000);
    co_await net.broadcast(0, NodeRange{0, 64}, 2000, BufferPlace::NicMemory);
  };
  sim.spawn(t());
  sim.run();
  EXPECT_EQ(net.bytes_put(), 1000);
  EXPECT_EQ(net.bytes_broadcast(), 2000);
}

}  // namespace
}  // namespace storm::net
