#include "net/packet_sim.hpp"

#include <gtest/gtest.h>

#include <ostream>

namespace storm::net {
namespace {

using sim::Bytes;

TEST(PacketReplay, SinglePacketMessage) {
  const auto t = replay_broadcast(100, 64, 11.0);
  EXPECT_EQ(t.packets, 1);
  EXPECT_GT(t.total_time.to_micros(), 0.0);
}

TEST(PacketReplay, PacketCountRoundsUp) {
  const QsNetParams p{};
  EXPECT_EQ(replay_broadcast(p.mtu, 4, 10).packets, 1);
  EXPECT_EQ(replay_broadcast(p.mtu + 1, 4, 10).packets, 2);
  EXPECT_EQ(replay_broadcast(10 * p.mtu, 4, 10).packets, 10);
}

// Property: for long messages the packet-level replay must converge to
// the analytic steady-state model within 1%.
struct ConvergeCase {
  int nodes;
  double cable;
};

// Prints the case as its test-ID suffix: CMake's test discovery puts
// the printed value in place of the gtest index, so the ctest name
// reads "/n64_cable100m" rather than the struct's raw bytes, padding included.
void PrintTo(const ConvergeCase& c, std::ostream* os) {
  *os << 'n' << c.nodes << "_cable" << c.cable << 'm';
}

class ReplayVsModel : public ::testing::TestWithParam<ConvergeCase> {};

TEST_P(ReplayVsModel, SteadyStateAgreesWithin1Percent) {
  const auto& c = GetParam();
  const QsNetParams p{};
  const Bytes msg = 4 * 1024 * 1024;  // thousands of packets
  const auto replay = replay_broadcast(msg, c.nodes, c.cable, p);
  const auto model = QsNet::model_broadcast_bandwidth(c.nodes, c.cable, p);
  EXPECT_NEAR(replay.payload_bandwidth.to_mb_per_s(), model.to_mb_per_s(),
              model.to_mb_per_s() * 0.01)
      << "nodes=" << c.nodes << " cable=" << c.cable;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ReplayVsModel,
    ::testing::Values(ConvergeCase{4, 10}, ConvergeCase{16, 30},
                      ConvergeCase{64, 10}, ConvergeCase{64, 100},
                      ConvergeCase{256, 40}, ConvergeCase{1024, 60},
                      ConvergeCase{4096, 100}));

TEST(PacketReplay, ShortMessagesPayLatencyProportionallyMore) {
  // Effective bandwidth must increase with message size (fixed tail
  // latency amortised) and stay below the model's steady-state value.
  const QsNetParams p{};
  const auto model = QsNet::model_broadcast_bandwidth(64, 11.0, p);
  double prev = 0;
  for (Bytes msg : {1024, 8 * 1024, 64 * 1024, 1024 * 1024}) {
    const auto r = replay_broadcast(msg, 64, 11.0, p);
    EXPECT_GE(r.payload_bandwidth.to_mb_per_s(), prev);
    EXPECT_LE(r.payload_bandwidth.to_mb_per_s(),
              model.to_mb_per_s() * 1.001);
    prev = r.payload_bandwidth.to_mb_per_s();
  }
}

TEST(PacketReplay, FirstAckBeforeTotalForMultiPacket) {
  const auto t = replay_broadcast(1024 * 1024, 64, 11.0);
  EXPECT_LT(t.first_ack, t.total_time);
}

TEST(PacketReplay, MoreSwitchesSlowTheAckLoop) {
  const auto small = replay_broadcast(1024 * 1024, 4, 50.0);
  const auto large = replay_broadcast(1024 * 1024, 4096, 50.0);
  EXPECT_GT(small.payload_bandwidth.to_mb_per_s(),
            large.payload_bandwidth.to_mb_per_s());
}

}  // namespace
}  // namespace storm::net
