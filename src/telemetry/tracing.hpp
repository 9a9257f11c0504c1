// Deterministic causal tracing over simulated time.
//
// Every dæmon opens RAII TraceSpans around the stages of its work (an
// MM boundary, one chunk write, a strobe broadcast); the span carries a
// fabric::TraceContext (64-bit trace id + span id) that the fabric
// threads through XFER / COMPARE-AND-WRITE / command envelopes, so the
// receiving dæmon can parent its own span on the exact operation that
// caused it. Spans land in a bounded TraceBuffer whose byte image is
// same-seed byte-identical (like StructuredTraceSink): span ids are
// allocated sequentially, timestamps are simulated time, and nothing
// consumes randomness.
//
// Trace-id scheme:
//   1                                      control plane (strobes,
//                                          heartbeats, MM boundaries)
//   2 + job * kIncarnationsPerJob + inc    one trace per job incarnation
//
// The buffer exports to Chrome/Perfetto trace-event JSON (one process
// per node, one thread lane per dæmon, flow arrows along cause→effect
// edges) and feeds the launch critical-path analyzer. Spans still open
// at export time (e.g. dæmon loops parked in suspended coroutine
// frames when the simulation drains) are skipped by both consumers.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fabric/fabric.hpp"
#include "sim/simulator.hpp"

namespace storm::telemetry {

/// Matches storm::kMaxIncarnations (protocol.hpp); duplicated here so
/// the telemetry layer does not depend on the dæmon headers.
inline constexpr std::uint64_t kIncarnationsPerJob = 8;

/// Trace id of the control-plane trace (boundaries, strobes,
/// heartbeats, failover — everything not owned by one job).
inline constexpr std::uint64_t kControlTrace = 1;

/// Trace id of job `job`, incarnation `inc`.
constexpr std::uint64_t job_trace_id(int job, int inc) {
  return 2 + static_cast<std::uint64_t>(job) * kIncarnationsPerJob +
         static_cast<std::uint64_t>(inc);
}

enum class SpanKind : std::uint8_t {
  JobLaunch = 0,  // root: placement → all PEs forked (one per incarnation)
  MmBoundary,     // one MM boundary cycle
  MmObserve,      // MM polls one job's report/termination queries
  MmLaunchIssue,  // MM multicasts one job's launch command
  MmStrobe,       // MM broadcasts one timeslot switch
  MmHeartbeat,    // one heartbeat round
  MmKill,         // MM kills one job incarnation
  MmFailover,     // standby MM takes over
  FtTransfer,     // whole-file send on the MM
  FtRead,         // producer reads one chunk from the filesystem
  FtAssist,       // sender-side assist compute for one chunk
  FtBcast,        // hardware broadcast of one chunk (XFER + wait)
  FtStall,        // sender blocked on flow control
  NmPrepare,      // NM arms the chunk receiver
  NmLaunch,       // NM handles a launch command
  NmKill,         // NM handles a kill command
  NmStrobe,       // NM enacts a timeslot switch
  NmHeartbeat,    // NM answers a heartbeat epoch
  NmChunk,        // NM waits for + writes one broadcast chunk
  PlFork,         // program launcher forks local PEs
  Idle,           // analysis-only: critical-path gap between spans
};
inline constexpr int kSpanKindCount = static_cast<int>(SpanKind::Idle) + 1;

constexpr std::string_view to_string(SpanKind k) {
  switch (k) {
    case SpanKind::JobLaunch: return "job-launch";
    case SpanKind::MmBoundary: return "mm-boundary";
    case SpanKind::MmObserve: return "mm-observe";
    case SpanKind::MmLaunchIssue: return "mm-launch-issue";
    case SpanKind::MmStrobe: return "mm-strobe";
    case SpanKind::MmHeartbeat: return "mm-heartbeat";
    case SpanKind::MmKill: return "mm-kill";
    case SpanKind::MmFailover: return "mm-failover";
    case SpanKind::FtTransfer: return "ft-transfer";
    case SpanKind::FtRead: return "ft-read";
    case SpanKind::FtAssist: return "ft-assist";
    case SpanKind::FtBcast: return "ft-bcast";
    case SpanKind::FtStall: return "ft-stall";
    case SpanKind::NmPrepare: return "nm-prepare";
    case SpanKind::NmLaunch: return "nm-launch";
    case SpanKind::NmKill: return "nm-kill";
    case SpanKind::NmStrobe: return "nm-strobe";
    case SpanKind::NmHeartbeat: return "nm-heartbeat";
    case SpanKind::NmChunk: return "nm-chunk";
    case SpanKind::PlFork: return "pl-fork";
    case SpanKind::Idle: return "idle";
  }
  return "?";
}

/// Perfetto thread lane a span renders on within its node's process.
constexpr std::string_view lane(SpanKind k) {
  switch (k) {
    case SpanKind::JobLaunch: return "jobs";
    case SpanKind::MmBoundary:
    case SpanKind::MmObserve:
    case SpanKind::MmLaunchIssue:
    case SpanKind::MmStrobe:
    case SpanKind::MmHeartbeat:
    case SpanKind::MmKill:
    case SpanKind::MmFailover: return "mm";
    case SpanKind::FtTransfer:
    case SpanKind::FtRead:
    case SpanKind::FtAssist:
    case SpanKind::FtBcast:
    case SpanKind::FtStall: return "ft";
    case SpanKind::NmPrepare:
    case SpanKind::NmLaunch:
    case SpanKind::NmKill:
    case SpanKind::NmStrobe:
    case SpanKind::NmHeartbeat:
    case SpanKind::NmChunk: return "nm";
    case SpanKind::PlFork: return "pl";
    case SpanKind::Idle: return "idle";
  }
  return "?";
}

/// One closed-or-open span. 48 bytes serialised (packed little-endian).
struct SpanRecord {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;    // sequential from 1; 0 is "no span"
  std::uint64_t parent = 0;  // 0 = root of its trace
  std::int64_t t_start_ns = 0;
  std::int64_t t_end_ns = -1;  // -1 while open
  std::int32_t node = -1;      // -1 = cluster-wide (e.g. MM failover)
  std::uint8_t kind = 0;       // SpanKind
  std::int64_t a = 0;          // kind-specific (job id, chunk index, …)
  std::int64_t b = 0;

  bool open() const { return t_end_ns < 0; }
  SpanKind span_kind() const { return static_cast<SpanKind>(kind); }
};

inline constexpr std::size_t kSpanRecordBytes = 8 * 5 + 4 + 1 + 8 * 2;

/// A cause→effect arrow between two spans (renders as a Perfetto flow).
struct FlowEdge {
  std::uint64_t from = 0;
  std::uint64_t to = 0;
};

/// What a TraceBuffer recorded, without the clock that stamped it: a
/// run's spans, flow edges and drop count, which stay readable and
/// exportable after the run's Simulator is gone.
struct TraceRecords {
  std::vector<SpanRecord> spans;  // span ids strictly increasing
  std::vector<FlowEdge> flows;
  std::size_t dropped = 0;        // spans refused because the buffer was full

  /// The span with id `id`, or nullptr.
  const SpanRecord* find(std::uint64_t id) const;
};

/// Bounded, byte-serialisable store of spans and flow edges. Span ids
/// are sequential, so two same-seed runs produce byte-identical
/// buffers. When full, new spans are dropped (counted) — open/close of
/// already-recorded spans still lands.
class TraceBuffer {
 public:
  explicit TraceBuffer(sim::Simulator& sim) : sim_(sim) {}

  /// Default span bound: ~48 MB of spans before dropping.
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  void set_capacity(std::size_t n) { capacity_ = n; }
  std::size_t capacity() const { return capacity_; }

  /// Open a span; returns its id (0 if the buffer is full).
  std::uint64_t begin_span(SpanKind kind, int node, std::uint64_t trace,
                           std::uint64_t parent, std::int64_t a = 0,
                           std::int64_t b = 0);
  /// Close span `id` at the current simulated time (no-op for id 0 or
  /// an already-closed span).
  void end_span(std::uint64_t id);
  /// Record a cause→effect arrow (no-op when either end is 0).
  void flow(std::uint64_t from, std::uint64_t to);

  const TraceRecords& records() const { return rec_; }

  /// Packed little-endian image: span count, flow count, then every
  /// span and every flow edge. Open spans serialise with t_end = -1.
  std::vector<std::uint8_t> bytes() const;

 private:
  sim::Simulator& sim_;
  TraceRecords rec_;
  std::uint64_t next_id_ = 1;
  std::size_t capacity_ = kDefaultCapacity;
};

class CausalTracer;

/// Move-only RAII handle: closes its span on destruction. A default-
/// constructed TraceSpan is inert, so dæmons can instrument
/// unconditionally and only populate the span when tracing is enabled.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(TraceBuffer* buf, fabric::TraceContext ctx)
      : buf_(buf), ctx_(ctx) {}
  TraceSpan(TraceSpan&& o) noexcept : buf_(o.buf_), ctx_(o.ctx_) {
    o.buf_ = nullptr;
    o.ctx_ = {};
  }
  TraceSpan& operator=(TraceSpan&& o) noexcept {
    if (this != &o) {
      end();
      buf_ = o.buf_;
      ctx_ = o.ctx_;
      o.buf_ = nullptr;
      o.ctx_ = {};
    }
    return *this;
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { end(); }

  /// The context to stamp on fabric operations this span causes.
  fabric::TraceContext context() const { return ctx_; }
  bool active() const { return buf_ != nullptr && ctx_.span != 0; }

  void end() {
    if (buf_ != nullptr) buf_->end_span(ctx_.span);
    buf_ = nullptr;
  }

 private:
  TraceBuffer* buf_ = nullptr;
  fabric::TraceContext ctx_{};
};

/// The tracing middleware + span factory. Passive on the fabric (it
/// never drops/delays); its observe() hook harvests the trace context
/// of LaunchChunk XFERs so the receiving NM can parent its chunk-write
/// span on the exact broadcast that carried the bytes.
class CausalTracer final : public fabric::Middleware {
 public:
  explicit CausalTracer(sim::Simulator& sim) : buffer_(sim) {}

  std::string_view name() const override { return "causal-tracer"; }
  void apply(const fabric::Envelope&, fabric::Action&) override {}
  void observe(const fabric::Envelope& e, const fabric::Action& a) override;

  // --- span factory -------------------------------------------------------
  /// Open a span inside `parent`'s trace (or the control trace when the
  /// parent is invalid).
  TraceSpan begin(SpanKind kind, int node, fabric::TraceContext parent,
                  std::int64_t a = 0, std::int64_t b = 0);
  /// begin() plus a cause→effect flow edge from the parent span. Use
  /// when the parent ran on a *different* node (command delivery,
  /// chunk broadcast) so the timeline draws the arrow.
  TraceSpan begin_flow(SpanKind kind, int node, fabric::TraceContext parent,
                       std::int64_t a = 0, std::int64_t b = 0);

  /// Lazily open the JobLaunch root span of (job, incarnation); returns
  /// its context. `mm_node` is recorded on first creation only.
  fabric::TraceContext job_root(int job, int inc, int mm_node);
  /// Close the JobLaunch root (job finished, was killed, or failed).
  void close_job(int job, int inc);

  /// Context of the broadcast that carried chunk `index` of `job`
  /// (invalid if no such XFER was observed yet).
  fabric::TraceContext chunk_cause(int job, int index) const;

  TraceBuffer& buffer() { return buffer_; }
  const TraceBuffer& buffer() const { return buffer_; }

 private:
  TraceBuffer buffer_;
  // (job << 32) | chunk-index → context of the carrying XFER. Lookup
  // only — iteration order never matters, so the hash map is safe for
  // determinism.
  std::unordered_map<std::uint64_t, fabric::TraceContext> chunk_ctx_;
  std::unordered_map<std::uint64_t, fabric::TraceContext> job_roots_;
};

// --- exporters ------------------------------------------------------------

/// Chrome/Perfetto trace-event JSON: one process per node (pid = node,
/// MM/standby tracks included), one thread lane per dæmon, "X" slices
/// for closed spans, "s"/"f" flow arrows along every edge whose both
/// ends closed. Open spans are skipped. Deterministic output.
std::string to_perfetto_json(const TraceRecords& rec);

/// Paper-style decomposition of one trace's critical path: walk
/// backwards from the latest span end, always stepping to the latest
/// span that finished before the current instant, attributing each
/// segment to its span's kind and uncovered gaps to Idle.
struct LaunchCriticalPath {
  std::int64_t total_ns = 0;  // first span start → last span end
  std::array<std::int64_t, kSpanKindCount> per_kind_ns{};
  double overlap_factor = 0.0;  // sum of span durations / total
  int spans = 0;                // closed spans considered

  std::int64_t kind_ns(SpanKind k) const {
    return per_kind_ns[static_cast<std::size_t>(k)];
  }
};

LaunchCriticalPath analyze_launch(const TraceRecords& rec,
                                  std::uint64_t trace);
inline LaunchCriticalPath analyze_launch(const TraceBuffer& buf,
                                         std::uint64_t trace) {
  return analyze_launch(buf.records(), trace);
}

/// Render one decomposition as human-readable lines ("  ft-bcast
/// 78.3% 83.21 ms" …), for the benches' stdout reports.
std::string format_critical_path(const LaunchCriticalPath& cp);

}  // namespace storm::telemetry
