// Typed control-plane messages for the STORM management fabric.
//
// The paper expresses every resource-management function as traffic
// over the three mechanisms; this header gives that traffic a *type*.
// Each message class names one control-plane interaction (the strobe
// that switches a timeslot, a heartbeat epoch, a chunk of a binary
// image, a flow-control credit check, a launch/termination report),
// formalising what used to be ad-hoc constants scattered through
// storm/protocol.hpp. Messages are small tagged unions with a compact,
// platform-independent wire encoding, so middleware can classify,
// perturb and trace them without string matching.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "sim/units.hpp"

namespace storm::fabric {

/// Job identifier as carried on the wire (storm::core::JobId is int).
using WireJobId = std::int32_t;

/// Causal trace context carried alongside control-plane traffic: which
/// trace (job launch / control-plane epoch) an operation belongs to and
/// which span caused it. A zero span means "untraced"; the pair rides
/// in fabric::Envelope and in command deliveries so a receiving dæmon
/// can parent its own span on the sender's. Purely observational: the
/// context never changes fabric behaviour or consumes randomness.
struct TraceContext {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  bool valid() const { return span != 0; }
  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// TracedCommand (defined after ControlMessage below) pairs a command
/// with the context of the MM-side span that multicast it, so command
/// handling spans nest under their cause even when the mailbox queues
/// several commands deep.

enum class MsgClass : std::uint8_t {
  Generic = 0,        // untyped traffic (legacy Mechanisms entry points)
  Strobe,             // gang-scheduling timeslot switch
  Heartbeat,          // liveness epoch announcement
  PrepareTransfer,    // arm the chunk receiver for a job
  Launch,             // fork the job's local PEs
  LaunchChunk,        // one fragment of the binary image
  FlowCredit,         // flow-control credit query (COMPARE-AND-WRITE)
  LaunchReport,       // "all local PEs forked" query
  TerminationReport,  // "all local PEs exited" query
  Kill,               // cancel one incarnation of a job (recovery path)
  Fault,              // fault-campaign event announcement (replay anchor)
  Repl,               // MM replication traffic (append/ack/lease/steal)
};
inline constexpr int kMsgClassCount = static_cast<int>(MsgClass::Repl) + 1;

constexpr std::string_view to_string(MsgClass c) {
  switch (c) {
    case MsgClass::Generic: return "generic";
    case MsgClass::Strobe: return "strobe";
    case MsgClass::Heartbeat: return "heartbeat";
    case MsgClass::PrepareTransfer: return "prepare";
    case MsgClass::Launch: return "launch";
    case MsgClass::LaunchChunk: return "chunk";
    case MsgClass::FlowCredit: return "credit";
    case MsgClass::LaunchReport: return "launch-rep";
    case MsgClass::TerminationReport: return "term-rep";
    case MsgClass::Kill: return "kill";
    case MsgClass::Fault: return "fault";
    case MsgClass::Repl: return "repl";
  }
  return "?";
}

// --- per-class payloads (all trivially copyable) --------------------------

struct StrobePayload {
  std::int32_t row = 0;  // Ousterhout-matrix row to enact
};
struct HeartbeatPayload {
  std::int64_t epoch = 0;
};
struct PrepareTransferPayload {
  WireJobId job = -1;
  std::int32_t chunks = 0;
  std::int64_t chunk_bytes = 0;
  std::int32_t incarnation = 0;
};
struct LaunchPayload {
  WireJobId job = -1;
  std::int32_t incarnation = 0;
};
struct LaunchChunkPayload {
  WireJobId job = -1;
  std::int32_t index = 0;  // chunk sequence number
  std::int64_t bytes = 0;
};
struct FlowCreditPayload {
  WireJobId job = -1;
  std::int32_t through_chunk = 0;  // every node must have written this many
};
struct LaunchReportPayload {
  WireJobId job = -1;
};
struct TerminationReportPayload {
  WireJobId job = -1;
};
struct KillPayload {
  WireJobId job = -1;
  std::int32_t incarnation = 0;  // only this incarnation is cancelled
};
struct FaultPayload {
  std::int32_t kind = 0;  // FaultCampaign::EventKind
  std::int32_t node = -1;  // victim node (-1: the primary MM)
};
struct ReplPayload {
  // verb (ReplVerb) in the low 8 bits, sender replica rank in the next
  // 8 — NM mailboxes deliver a bare ControlMessage, so the sender
  // identity has to ride in the payload.
  std::int32_t verb_from = 0;
  std::int32_t term = 0;      // leader term the message speaks for
  std::int32_t index = 0;     // log index (append) / match index (ack)
  std::int32_t kind_job = 0;  // entry kind + job id + entry term, packed
  std::int64_t args = 0;      // verb-specific argument word
};

/// A control-plane message: class tag + payload union. 32 bytes in
/// memory; `encode()` produces the compact wire image (tag byte plus
/// only the payload fields the class actually uses).
struct ControlMessage {
  MsgClass cls = MsgClass::Generic;

  union Payload {
    StrobePayload strobe;
    HeartbeatPayload heartbeat;
    PrepareTransferPayload prepare;
    LaunchPayload launch;
    LaunchChunkPayload chunk;
    FlowCreditPayload credit;
    LaunchReportPayload launch_report;
    TerminationReportPayload termination;
    KillPayload kill;
    FaultPayload fault;
    ReplPayload repl;
    constexpr Payload() : heartbeat{} {}
  } u{};

  // --- named constructors ------------------------------------------------
  static constexpr ControlMessage generic() { return ControlMessage{}; }
  static constexpr ControlMessage strobe(int row) {
    ControlMessage m;
    m.cls = MsgClass::Strobe;
    m.u.strobe = StrobePayload{row};
    return m;
  }
  static constexpr ControlMessage heartbeat(std::int64_t epoch) {
    ControlMessage m;
    m.cls = MsgClass::Heartbeat;
    m.u.heartbeat = HeartbeatPayload{epoch};
    return m;
  }
  static constexpr ControlMessage prepare_transfer(WireJobId job, int chunks,
                                                   sim::Bytes chunk_bytes,
                                                   int incarnation = 0) {
    ControlMessage m;
    m.cls = MsgClass::PrepareTransfer;
    m.u.prepare = PrepareTransferPayload{job, chunks, chunk_bytes, incarnation};
    return m;
  }
  static constexpr ControlMessage launch(WireJobId job, int incarnation = 0) {
    ControlMessage m;
    m.cls = MsgClass::Launch;
    m.u.launch = LaunchPayload{job, incarnation};
    return m;
  }
  static constexpr ControlMessage launch_chunk(WireJobId job, int index,
                                               sim::Bytes bytes) {
    ControlMessage m;
    m.cls = MsgClass::LaunchChunk;
    m.u.chunk = LaunchChunkPayload{job, index, bytes};
    return m;
  }
  static constexpr ControlMessage flow_credit(WireJobId job,
                                              int through_chunk) {
    ControlMessage m;
    m.cls = MsgClass::FlowCredit;
    m.u.credit = FlowCreditPayload{job, through_chunk};
    return m;
  }
  static constexpr ControlMessage launch_report(WireJobId job) {
    ControlMessage m;
    m.cls = MsgClass::LaunchReport;
    m.u.launch_report = LaunchReportPayload{job};
    return m;
  }
  static constexpr ControlMessage termination_report(WireJobId job) {
    ControlMessage m;
    m.cls = MsgClass::TerminationReport;
    m.u.termination = TerminationReportPayload{job};
    return m;
  }
  static constexpr ControlMessage kill(WireJobId job, int incarnation) {
    ControlMessage m;
    m.cls = MsgClass::Kill;
    m.u.kill = KillPayload{job, incarnation};
    return m;
  }
  static constexpr ControlMessage fault(int kind, int node) {
    ControlMessage m;
    m.cls = MsgClass::Fault;
    m.u.fault = FaultPayload{kind, node};
    return m;
  }
  static constexpr ControlMessage repl(std::int32_t verb_from,
                                       std::int32_t term, std::int32_t index,
                                       std::int32_t kind_job,
                                       std::int64_t args) {
    ControlMessage m;
    m.cls = MsgClass::Repl;
    m.u.repl = ReplPayload{verb_from, term, index, kind_job, args};
    return m;
  }

  // --- trace summary -----------------------------------------------------
  /// Two 64-bit words summarising the payload for fixed-width trace
  /// records: (a, b) = (job-or-row-or-epoch, secondary quantity).
  constexpr std::int64_t word_a() const {
    switch (cls) {
      case MsgClass::Generic: return 0;
      case MsgClass::Strobe: return u.strobe.row;
      case MsgClass::Heartbeat: return u.heartbeat.epoch;
      case MsgClass::PrepareTransfer: return u.prepare.job;
      case MsgClass::Launch: return u.launch.job;
      case MsgClass::LaunchChunk: return u.chunk.job;
      case MsgClass::FlowCredit: return u.credit.job;
      case MsgClass::LaunchReport: return u.launch_report.job;
      case MsgClass::TerminationReport: return u.termination.job;
      case MsgClass::Kill: return u.kill.job;
      case MsgClass::Fault: return u.fault.kind;
      case MsgClass::Repl: return u.repl.term;
    }
    return 0;
  }
  constexpr std::int64_t word_b() const {
    switch (cls) {
      case MsgClass::PrepareTransfer: return u.prepare.chunks;
      case MsgClass::Launch: return u.launch.incarnation;
      case MsgClass::LaunchChunk: return u.chunk.index;
      case MsgClass::FlowCredit: return u.credit.through_chunk;
      case MsgClass::Kill: return u.kill.incarnation;
      case MsgClass::Fault: return u.fault.node;
      case MsgClass::Repl: return u.repl.index;
      default: return 0;
    }
  }

  // --- compact wire encoding --------------------------------------------
  /// Upper bound on any encoded message (tag + largest payload).
  static constexpr std::size_t kMaxWireBytes = 25;
  using WireImage = std::array<std::uint8_t, kMaxWireBytes>;

  /// Encoded size of a message of class `c` (tag byte + used fields).
  static constexpr std::size_t wire_size(MsgClass c) {
    switch (c) {
      case MsgClass::Generic: return 1;
      case MsgClass::Strobe: return 1 + 4;
      case MsgClass::Heartbeat: return 1 + 8;
      case MsgClass::PrepareTransfer: return 1 + 4 + 4 + 8 + 4;
      case MsgClass::Launch: return 1 + 4 + 4;
      case MsgClass::LaunchChunk: return 1 + 4 + 4 + 8;
      case MsgClass::FlowCredit: return 1 + 4 + 4;
      case MsgClass::LaunchReport: return 1 + 4;
      case MsgClass::TerminationReport: return 1 + 4;
      case MsgClass::Kill: return 1 + 4 + 4;
      case MsgClass::Fault: return 1 + 4 + 4;
      case MsgClass::Repl: return 1 + 4 + 4 + 4 + 4 + 8;
    }
    return 1;
  }
  std::size_t wire_size() const { return wire_size(cls); }

  /// Serialise into `out` (little-endian, fields in declaration order).
  /// Returns the number of bytes written; bytes past it are zeroed.
  std::size_t encode(WireImage& out) const;
  /// Inverse of encode(): reads the tag byte and exactly the payload
  /// bytes its class uses. nullopt when `n` is 0, the tag names no
  /// class, or `n` is shorter than that class's wire size.
  static std::optional<ControlMessage> decode(const std::uint8_t* data,
                                              std::size_t n);
};

static_assert(sizeof(ControlMessage) <= 32,
              "control messages must stay one small cache-line fraction");

struct TracedCommand {
  ControlMessage msg{};
  TraceContext ctx{};
};

namespace detail {
inline void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}
inline void put_u64(std::uint8_t* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}
inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
inline std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}
}  // namespace detail

inline std::size_t ControlMessage::encode(WireImage& out) const {
  using namespace detail;
  out.fill(0);
  out[0] = static_cast<std::uint8_t>(cls);
  std::uint8_t* p = out.data() + 1;
  switch (cls) {
    case MsgClass::Generic:
      break;
    case MsgClass::Strobe:
      put_u32(p, static_cast<std::uint32_t>(u.strobe.row));
      break;
    case MsgClass::Heartbeat:
      put_u64(p, static_cast<std::uint64_t>(u.heartbeat.epoch));
      break;
    case MsgClass::PrepareTransfer:
      put_u32(p, static_cast<std::uint32_t>(u.prepare.job));
      put_u32(p + 4, static_cast<std::uint32_t>(u.prepare.chunks));
      put_u64(p + 8, static_cast<std::uint64_t>(u.prepare.chunk_bytes));
      put_u32(p + 16, static_cast<std::uint32_t>(u.prepare.incarnation));
      break;
    case MsgClass::Launch:
      put_u32(p, static_cast<std::uint32_t>(u.launch.job));
      put_u32(p + 4, static_cast<std::uint32_t>(u.launch.incarnation));
      break;
    case MsgClass::LaunchChunk:
      put_u32(p, static_cast<std::uint32_t>(u.chunk.job));
      put_u32(p + 4, static_cast<std::uint32_t>(u.chunk.index));
      put_u64(p + 8, static_cast<std::uint64_t>(u.chunk.bytes));
      break;
    case MsgClass::FlowCredit:
      put_u32(p, static_cast<std::uint32_t>(u.credit.job));
      put_u32(p + 4, static_cast<std::uint32_t>(u.credit.through_chunk));
      break;
    case MsgClass::LaunchReport:
      put_u32(p, static_cast<std::uint32_t>(u.launch_report.job));
      break;
    case MsgClass::TerminationReport:
      put_u32(p, static_cast<std::uint32_t>(u.termination.job));
      break;
    case MsgClass::Kill:
      put_u32(p, static_cast<std::uint32_t>(u.kill.job));
      put_u32(p + 4, static_cast<std::uint32_t>(u.kill.incarnation));
      break;
    case MsgClass::Fault:
      put_u32(p, static_cast<std::uint32_t>(u.fault.kind));
      put_u32(p + 4, static_cast<std::uint32_t>(u.fault.node));
      break;
    case MsgClass::Repl:
      put_u32(p, static_cast<std::uint32_t>(u.repl.verb_from));
      put_u32(p + 4, static_cast<std::uint32_t>(u.repl.term));
      put_u32(p + 8, static_cast<std::uint32_t>(u.repl.index));
      put_u32(p + 12, static_cast<std::uint32_t>(u.repl.kind_job));
      put_u64(p + 16, static_cast<std::uint64_t>(u.repl.args));
      break;
  }
  return wire_size();
}

inline std::optional<ControlMessage> ControlMessage::decode(
    const std::uint8_t* data, std::size_t n) {
  using namespace detail;
  if (n == 0 || data[0] >= kMsgClassCount) return std::nullopt;
  const auto cls = static_cast<MsgClass>(data[0]);
  if (n < wire_size(cls)) return std::nullopt;
  const std::uint8_t* p = data + 1;
  switch (cls) {
    case MsgClass::Generic:
      return generic();
    case MsgClass::Strobe:
      return strobe(static_cast<std::int32_t>(get_u32(p)));
    case MsgClass::Heartbeat:
      return heartbeat(static_cast<std::int64_t>(get_u64(p)));
    case MsgClass::PrepareTransfer:
      return prepare_transfer(static_cast<WireJobId>(get_u32(p)),
                              static_cast<std::int32_t>(get_u32(p + 4)),
                              static_cast<sim::Bytes>(get_u64(p + 8)),
                              static_cast<std::int32_t>(get_u32(p + 16)));
    case MsgClass::Launch:
      return launch(static_cast<WireJobId>(get_u32(p)),
                    static_cast<std::int32_t>(get_u32(p + 4)));
    case MsgClass::LaunchChunk:
      return launch_chunk(static_cast<WireJobId>(get_u32(p)),
                          static_cast<std::int32_t>(get_u32(p + 4)),
                          static_cast<sim::Bytes>(get_u64(p + 8)));
    case MsgClass::FlowCredit:
      return flow_credit(static_cast<WireJobId>(get_u32(p)),
                         static_cast<std::int32_t>(get_u32(p + 4)));
    case MsgClass::LaunchReport:
      return launch_report(static_cast<WireJobId>(get_u32(p)));
    case MsgClass::TerminationReport:
      return termination_report(static_cast<WireJobId>(get_u32(p)));
    case MsgClass::Kill:
      return kill(static_cast<WireJobId>(get_u32(p)),
                  static_cast<std::int32_t>(get_u32(p + 4)));
    case MsgClass::Fault:
      return fault(static_cast<std::int32_t>(get_u32(p)),
                   static_cast<std::int32_t>(get_u32(p + 4)));
    case MsgClass::Repl:
      return repl(static_cast<std::int32_t>(get_u32(p)),
                  static_cast<std::int32_t>(get_u32(p + 4)),
                  static_cast<std::int32_t>(get_u32(p + 8)),
                  static_cast<std::int32_t>(get_u32(p + 12)),
                  static_cast<std::int64_t>(get_u64(p + 16)));
  }
  return std::nullopt;
}

}  // namespace storm::fabric
