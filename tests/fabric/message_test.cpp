// Round-trip and compactness tests for the typed control-plane
// messages.
#include "fabric/message.hpp"

#include <gtest/gtest.h>

namespace storm::fabric {
namespace {

TEST(ControlMessage, StrobeRoundTrip) {
  const ControlMessage m = ControlMessage::strobe(3);
  ControlMessage::WireImage w;
  const std::size_t n = m.encode(w);
  EXPECT_EQ(n, ControlMessage::wire_size(MsgClass::Strobe));
  const ControlMessage d = ControlMessage::decode(w.data(), n).value();
  EXPECT_EQ(d.cls, MsgClass::Strobe);
  EXPECT_EQ(d.u.strobe.row, 3);
}

TEST(ControlMessage, HeartbeatRoundTripLargeEpoch) {
  const std::int64_t epoch = 0x1234'5678'9ABCLL;
  const ControlMessage m = ControlMessage::heartbeat(epoch);
  ControlMessage::WireImage w;
  const std::size_t n = m.encode(w);
  const ControlMessage d = ControlMessage::decode(w.data(), n).value();
  EXPECT_EQ(d.cls, MsgClass::Heartbeat);
  EXPECT_EQ(d.u.heartbeat.epoch, epoch);
}

TEST(ControlMessage, PrepareTransferRoundTrip) {
  const ControlMessage m =
      ControlMessage::prepare_transfer(7, 24, 512 * 1024);
  ControlMessage::WireImage w;
  const std::size_t n = m.encode(w);
  const ControlMessage d = ControlMessage::decode(w.data(), n).value();
  EXPECT_EQ(d.cls, MsgClass::PrepareTransfer);
  EXPECT_EQ(d.u.prepare.job, 7);
  EXPECT_EQ(d.u.prepare.chunks, 24);
  EXPECT_EQ(d.u.prepare.chunk_bytes, 512 * 1024);
}

TEST(ControlMessage, LaunchChunkRoundTrip) {
  const ControlMessage m = ControlMessage::launch_chunk(2, 13, 1 << 20);
  ControlMessage::WireImage w;
  const std::size_t n = m.encode(w);
  const ControlMessage d = ControlMessage::decode(w.data(), n).value();
  EXPECT_EQ(d.cls, MsgClass::LaunchChunk);
  EXPECT_EQ(d.u.chunk.job, 2);
  EXPECT_EQ(d.u.chunk.index, 13);
  EXPECT_EQ(d.u.chunk.bytes, 1 << 20);
}

TEST(ControlMessage, ReplRoundTrip) {
  const ControlMessage m =
      ControlMessage::repl(0x0102'0304, 7, 42, 0x0A0B'0C0D,
                           0x1122'3344'5566'7788LL);
  ControlMessage::WireImage w;
  const std::size_t n = m.encode(w);
  EXPECT_EQ(n, ControlMessage::wire_size(MsgClass::Repl));
  const ControlMessage d = ControlMessage::decode(w.data(), n).value();
  EXPECT_EQ(d.cls, MsgClass::Repl);
  EXPECT_EQ(d.u.repl.verb_from, 0x0102'0304);
  EXPECT_EQ(d.u.repl.term, 7);
  EXPECT_EQ(d.u.repl.index, 42);
  EXPECT_EQ(d.u.repl.kind_job, 0x0A0B'0C0D);
  EXPECT_EQ(d.u.repl.args, 0x1122'3344'5566'7788LL);
}

TEST(ControlMessage, EveryClassRoundTripsItsTag) {
  const ControlMessage msgs[] = {
      ControlMessage::generic(),
      ControlMessage::strobe(1),
      ControlMessage::heartbeat(2),
      ControlMessage::prepare_transfer(3, 4, 5),
      ControlMessage::launch(6),
      ControlMessage::launch_chunk(7, 8, 9),
      ControlMessage::flow_credit(10, 11),
      ControlMessage::launch_report(12),
      ControlMessage::termination_report(13),
      ControlMessage::kill(14, 1),
      ControlMessage::fault(15, 16),
      ControlMessage::repl(17, 18, 19, 20, 21),
  };
  ASSERT_EQ(std::size(msgs), static_cast<std::size_t>(kMsgClassCount));
  for (const auto& m : msgs) {
    ControlMessage::WireImage w;
    const std::size_t n = m.encode(w);
    EXPECT_LE(n, ControlMessage::kMaxWireBytes);
    const ControlMessage d = ControlMessage::decode(w.data(), n).value();
    EXPECT_EQ(d.cls, m.cls);
    EXPECT_EQ(d.word_a(), m.word_a());
    EXPECT_EQ(d.word_b(), m.word_b());
  }
}

TEST(ControlMessage, DecodeRejectsEmptyInput) {
  const std::uint8_t tag = 0;
  EXPECT_FALSE(ControlMessage::decode(&tag, 0).has_value());
  EXPECT_FALSE(ControlMessage::decode(nullptr, 0).has_value());
}

TEST(ControlMessage, DecodeRejectsTruncatedImage) {
  ControlMessage::WireImage w;
  const std::size_t n = ControlMessage::repl(1, 2, 3, 4, 5).encode(w);
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_FALSE(ControlMessage::decode(w.data(), k).has_value()) << k;
  }
  EXPECT_TRUE(ControlMessage::decode(w.data(), n).has_value());
}

TEST(ControlMessage, DecodeRejectsUnknownTag) {
  ControlMessage::WireImage w{};
  w[0] = kMsgClassCount;
  EXPECT_FALSE(ControlMessage::decode(w.data(), w.size()).has_value());
  w[0] = 0xFF;
  EXPECT_FALSE(ControlMessage::decode(w.data(), w.size()).has_value());
}

TEST(ControlMessage, CompactEncoding) {
  // A strobe is one tag byte plus one 32-bit row — not a padded union.
  EXPECT_EQ(ControlMessage::wire_size(MsgClass::Strobe), 5u);
  EXPECT_EQ(ControlMessage::wire_size(MsgClass::Generic), 1u);
  EXPECT_EQ(ControlMessage::wire_size(MsgClass::PrepareTransfer), 21u);
  EXPECT_EQ(ControlMessage::wire_size(MsgClass::Kill), 9u);
  // The in-memory representation stays small too.
  EXPECT_LE(sizeof(ControlMessage), 32u);
}

TEST(ControlMessage, TraceWords) {
  EXPECT_EQ(ControlMessage::strobe(4).word_a(), 4);
  EXPECT_EQ(ControlMessage::heartbeat(99).word_a(), 99);
  EXPECT_EQ(ControlMessage::launch_chunk(5, 17, 1024).word_a(), 5);
  EXPECT_EQ(ControlMessage::launch_chunk(5, 17, 1024).word_b(), 17);
  EXPECT_EQ(ControlMessage::flow_credit(5, 8).word_b(), 8);
}

TEST(ControlMessage, ClassNames) {
  for (int c = 0; c < kMsgClassCount; ++c) {
    EXPECT_NE(to_string(static_cast<MsgClass>(c)), "?");
  }
}

}  // namespace
}  // namespace storm::fabric
