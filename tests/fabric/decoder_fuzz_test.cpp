// Mutation fuzzing of the two wire decoders: ControlMessage::decode and
// TraceReplayer::from_bytes. A fixed seed and a fixed iteration budget
// keep the run deterministic. Every mutated input is copied into a
// buffer of exactly its own size, so any read past the end trips the
// address sanitizer in the sanitizer build.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fabric/fault_campaign.hpp"
#include "fabric/fault_plan.hpp"
#include "fabric/message.hpp"
#include "fabric/trace_replay.hpp"
#include "fabric/trace_sink.hpp"
#include "sim/random.hpp"
#include "storm/cluster.hpp"

namespace storm::fabric {
namespace {

using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

/// One random byte flip, truncation or extension of `in`.
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> in, sim::Rng& rng) {
  switch (rng.below(3)) {
    case 0:
      if (!in.empty()) {
        const std::uint64_t flips = 1 + rng.below(4);
        for (std::uint64_t k = 0; k < flips; ++k) {
          in[rng.below(in.size())] ^=
              static_cast<std::uint8_t>(1 + rng.below(255));
        }
      }
      break;
    case 1:
      in.resize(rng.below(in.size() + 1));
      break;
    default: {
      const std::uint64_t extra = 1 + rng.below(48);
      for (std::uint64_t k = 0; k < extra; ++k) {
        in.push_back(static_cast<std::uint8_t>(rng.below(256)));
      }
      break;
    }
  }
  in.shrink_to_fit();  // no slack capacity past size() for reads to hide in
  return in;
}

TEST(DecoderFuzz, ControlMessageDecodeNeverOverreads) {
  const ControlMessage seeds[] = {
      ControlMessage::generic(),
      ControlMessage::strobe(1),
      ControlMessage::heartbeat(-2),
      ControlMessage::prepare_transfer(3, 4, 5, 6),
      ControlMessage::launch(6, 1),
      ControlMessage::launch_chunk(7, 8, 9),
      ControlMessage::flow_credit(10, 11),
      ControlMessage::launch_report(12),
      ControlMessage::termination_report(13),
      ControlMessage::kill(14, 1),
      ControlMessage::fault(2, 16),
      ControlMessage::repl(17, 18, 19, 20, 21),
  };
  ASSERT_EQ(std::size(seeds), static_cast<std::size_t>(kMsgClassCount));
  sim::Rng rng(0xF022'0001ULL);
  int accepted = 0;
  int rejected = 0;
  for (const ControlMessage& m : seeds) {
    ControlMessage::WireImage w;
    const std::size_t n = m.encode(w);
    const std::vector<std::uint8_t> clean(w.begin(), w.begin() + n);
    for (int i = 0; i < 400; ++i) {
      const std::vector<std::uint8_t> in = mutate(clean, rng);
      const std::optional<ControlMessage> d =
          ControlMessage::decode(in.data(), in.size());
      const bool valid =
          !in.empty() && in[0] < kMsgClassCount &&
          in.size() >= ControlMessage::wire_size(static_cast<MsgClass>(in[0]));
      ASSERT_EQ(d.has_value(), valid) << "class " << to_string(m.cls);
      if (!d) {
        ++rejected;
        continue;
      }
      ++accepted;
      // Accepted input re-encodes to exactly the bytes decode consumed.
      ControlMessage::WireImage again;
      const std::size_t k = d->encode(again);
      ASSERT_LE(k, in.size());
      EXPECT_TRUE(std::equal(again.begin(), again.begin() + k, in.begin()));
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(DecoderFuzz, TraceReplayerNeverOverreads) {
  // A recorded campaign stream: crash and recover notes among the
  // launch traffic of a small cluster.
  sim::Simulator sim(7);
  core::ClusterConfig cfg = core::ClusterConfig::es40(4);
  cfg.storm.quantum = 5_ms;
  cfg.storm.heartbeat_enabled = true;
  core::Cluster cluster(sim, cfg);
  auto sink = std::make_shared<StructuredTraceSink>(sim);
  cluster.fabric().push(sink);
  FaultCampaign campaign;
  campaign.crash_node(3, 10_ms);
  campaign.recover_node(3, 60_ms);
  campaign.crash_primary_mm(80_ms);
  campaign.arm(sim, &cluster.fabric(), CampaignHooks{});
  cluster.submit({.binary_size = 256_KB, .npes = 4});
  sim.run(100_ms);
  const std::vector<std::uint8_t> clean = sink->bytes();
  ASSERT_TRUE(TraceReplayer::from_bytes(clean).has_value());
  ASSERT_EQ(TraceReplayer::from_bytes(clean)->campaign().events().size(), 3u);

  sim::Rng rng(0xF022'0002ULL);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 300; ++i) {
    const std::vector<std::uint8_t> in = mutate(clean, rng);
    std::string error;
    const std::optional<TraceReplayer> rp =
        TraceReplayer::from_bytes(in, &error);
    if (!rp) {
      ++rejected;
      EXPECT_FALSE(error.empty());
      continue;
    }
    ++accepted;
    ASSERT_EQ(rp->records().size(), in.size() / kTraceRecordBytes);
    // Whatever parses must rebuild a campaign and a replay rule.
    FaultCampaign rebuilt = rp->campaign();
    EXPECT_LE(rebuilt.events().size(), rp->records().size());
    const FaultRule replay = FaultRule::replay(rp->records());
    EXPECT_LE(replay.position(), rp->records().size());
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace storm::fabric
