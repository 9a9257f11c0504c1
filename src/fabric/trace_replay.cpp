#include "fabric/trace_replay.hpp"

#include <limits>

namespace storm::fabric {

namespace {

/// Why record `r` cannot come from StructuredTraceSink, or nullptr.
const char* invalid(const TraceRecord& r) {
  if (r.op >= kOpKindCount) return "unknown op kind";
  if (r.cls >= kMsgClassCount) return "unknown message class";
  if (r.component >= kComponentCount) return "unknown component";
  if (r.op_kind() == OpKind::Note && r.msg_class() == MsgClass::Fault) {
    if (r.a < 0 || r.a > static_cast<std::int64_t>(
                             FaultCampaign::EventKind::CrashPrimaryMm)) {
      return "unknown fault kind";
    }
    if (r.b < std::numeric_limits<int>::min() ||
        r.b > std::numeric_limits<int>::max()) {
      return "fault node out of range";
    }
  }
  return nullptr;
}

}  // namespace

std::optional<TraceReplayer> TraceReplayer::from_bytes(
    const std::vector<std::uint8_t>& bytes, std::string* error) {
  using detail::get_u32;
  using detail::get_u64;
  TraceReplayer rp;
  const std::size_t n = bytes.size() / kTraceRecordBytes;
  rp.records_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t* p = bytes.data() + i * kTraceRecordBytes;
    TraceRecord r;
    r.t_ns = static_cast<std::int64_t>(get_u64(p));
    r.op = p[8];
    r.cls = p[9];
    r.component = p[10];
    r.flags = p[11];
    r.src = static_cast<std::int32_t>(get_u32(p + 12));
    r.dst_first = static_cast<std::int32_t>(get_u32(p + 16));
    r.dst_count = static_cast<std::int32_t>(get_u32(p + 20));
    r.a = static_cast<std::int64_t>(get_u64(p + 24));
    r.b = static_cast<std::int64_t>(get_u64(p + 32));
    if (const char* why = invalid(r)) {
      if (error != nullptr) {
        *error = "record " + std::to_string(i) + ": " + why;
      }
      return std::nullopt;
    }
    rp.records_.push_back(r);
  }
  return rp;
}

FaultCampaign TraceReplayer::campaign() const {
  FaultCampaign c;
  for (const TraceRecord& r : records_) {
    if (r.op_kind() != OpKind::Note || r.msg_class() != MsgClass::Fault)
      continue;
    const auto at = sim::SimTime::ns(r.t_ns);
    // from_bytes() admitted only known kinds and int-sized nodes.
    switch (static_cast<FaultCampaign::EventKind>(r.a)) {
      case FaultCampaign::EventKind::CrashNode:
        c.crash_node(static_cast<int>(r.b), at);
        break;
      case FaultCampaign::EventKind::RecoverNode:
        c.recover_node(static_cast<int>(r.b), at);
        break;
      case FaultCampaign::EventKind::CrashPrimaryMm:
        c.crash_primary_mm(at);
        break;
    }
  }
  return c;
}

}  // namespace storm::fabric
