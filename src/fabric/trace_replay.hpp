// TraceReplayer: turn a recorded StructuredTraceSink byte stream back
// into a scripted fault schedule, making any observed faulty run a
// regression test.
//
// Two artefacts are reconstructed from the stream:
//
//   * The fault campaign. FaultCampaign::arm() announces every
//     crash/recover/MM-death event as a Fault note right before its
//     hook fires, so the recorded stream is self-describing:
//     campaign() rebuilds the exact schedule from those notes.
//
//   * The per-operation drop decisions. FaultRule::replay(records())
//     walks the recorded stream in lockstep with the replay run's
//     envelopes — the workload is deterministic, so operation N of the
//     replay is operation N of the recording — and re-applies the
//     recorded drop verdicts positionally. Mismatched envelopes
//     (diverged replay) are counted, never dropped.
//
// Limitation: the sink records *that* an operation was delayed or
// duplicated, not by how much, so only drop decisions (and the fault
// schedule itself) replay exactly. Record with drop/crash-only
// campaigns when byte-identity matters; mismatches() flags divergence
// otherwise.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fabric/fault_campaign.hpp"
#include "fabric/trace_sink.hpp"

namespace storm::fabric {

class TraceReplayer {
 public:
  /// Parse a StructuredTraceSink::bytes() image (40-byte records).
  /// Trailing partial records are ignored. A record whose op, class or
  /// component byte names no known value, or a Fault note whose kind
  /// is unknown or whose node does not fit an int, rejects the whole
  /// stream: the result is nullopt and `error` (when given) names the
  /// record and the reason.
  static std::optional<TraceReplayer> from_bytes(
      const std::vector<std::uint8_t>& bytes, std::string* error = nullptr);

  const std::vector<TraceRecord>& records() const { return records_; }

  /// Rebuild the fault schedule from the stream's Fault notes.
  FaultCampaign campaign() const;

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace storm::fabric
