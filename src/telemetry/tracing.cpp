#include "telemetry/tracing.hpp"

#include <algorithm>
#include <cstdio>

namespace storm::telemetry {

using fabric::Envelope;
using fabric::TraceContext;

// --- TraceBuffer ----------------------------------------------------------

std::uint64_t TraceBuffer::begin_span(SpanKind kind, int node,
                                      std::uint64_t trace,
                                      std::uint64_t parent, std::int64_t a,
                                      std::int64_t b) {
  if (rec_.spans.size() >= capacity_) {
    ++rec_.dropped;
    return 0;
  }
  SpanRecord r;
  r.trace = trace;
  r.span = next_id_++;
  r.parent = parent;
  r.t_start_ns = sim_.now().raw_ns();
  r.t_end_ns = -1;
  r.node = node;
  r.kind = static_cast<std::uint8_t>(kind);
  r.a = a;
  r.b = b;
  rec_.spans.push_back(r);
  return r.span;
}

const SpanRecord* TraceRecords::find(std::uint64_t id) const {
  // Span ids are strictly increasing in insertion order.
  auto it = std::lower_bound(
      spans.begin(), spans.end(), id,
      [](const SpanRecord& s, std::uint64_t v) { return s.span < v; });
  if (it == spans.end() || it->span != id) return nullptr;
  return &*it;
}

void TraceBuffer::end_span(std::uint64_t id) {
  if (id == 0) return;
  // The record is ours to stamp: find() only hands out const access.
  auto* s = const_cast<SpanRecord*>(rec_.find(id));
  if (s == nullptr || !s->open()) return;
  s->t_end_ns = sim_.now().raw_ns();
}

void TraceBuffer::flow(std::uint64_t from, std::uint64_t to) {
  if (from == 0 || to == 0) return;
  rec_.flows.push_back(FlowEdge{from, to});
}

std::vector<std::uint8_t> TraceBuffer::bytes() const {
  std::vector<std::uint8_t> out;
  out.reserve(16 + rec_.spans.size() * kSpanRecordBytes +
              rec_.flows.size() * 16);
  auto put32 = [&out](std::uint32_t v) {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
  };
  auto put64 = [&](std::uint64_t v) {
    put32(static_cast<std::uint32_t>(v));
    put32(static_cast<std::uint32_t>(v >> 32));
  };
  put64(rec_.spans.size());
  put64(rec_.flows.size());
  for (const auto& s : rec_.spans) {
    put64(s.trace);
    put64(s.span);
    put64(s.parent);
    put64(static_cast<std::uint64_t>(s.t_start_ns));
    put64(static_cast<std::uint64_t>(s.t_end_ns));
    put32(static_cast<std::uint32_t>(s.node));
    out.push_back(s.kind);
    put64(static_cast<std::uint64_t>(s.a));
    put64(static_cast<std::uint64_t>(s.b));
  }
  for (const auto& f : rec_.flows) {
    put64(f.from);
    put64(f.to);
  }
  return out;
}

// --- CausalTracer ---------------------------------------------------------

void CausalTracer::observe(const Envelope& e, const fabric::Action& a) {
  if (e.op != fabric::OpKind::Xfer || e.cls() != fabric::MsgClass::LaunchChunk)
    return;
  if (!e.ctx.valid() || a.drop) return;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
           e.msg.u.chunk.job))
       << 32) |
      static_cast<std::uint32_t>(e.msg.u.chunk.index);
  chunk_ctx_[key] = e.ctx;
}

TraceSpan CausalTracer::begin(SpanKind kind, int node, TraceContext parent,
                              std::int64_t a, std::int64_t b) {
  const std::uint64_t trace =
      parent.valid() ? parent.trace : kControlTrace;
  const std::uint64_t id =
      buffer_.begin_span(kind, node, trace, parent.span, a, b);
  return TraceSpan(&buffer_, TraceContext{trace, id});
}

TraceSpan CausalTracer::begin_flow(SpanKind kind, int node,
                                   TraceContext parent, std::int64_t a,
                                   std::int64_t b) {
  TraceSpan s = begin(kind, node, parent, a, b);
  if (parent.valid()) buffer_.flow(parent.span, s.context().span);
  return s;
}

TraceContext CausalTracer::job_root(int job, int inc, int mm_node) {
  const std::uint64_t trace = job_trace_id(job, inc);
  auto it = job_roots_.find(trace);
  if (it != job_roots_.end()) return it->second;
  const std::uint64_t id = buffer_.begin_span(SpanKind::JobLaunch, mm_node,
                                              trace, 0, job, inc);
  const TraceContext ctx{trace, id};
  job_roots_.emplace(trace, ctx);
  return ctx;
}

void CausalTracer::close_job(int job, int inc) {
  const std::uint64_t trace = job_trace_id(job, inc);
  auto it = job_roots_.find(trace);
  if (it == job_roots_.end()) return;
  buffer_.end_span(it->second.span);
}

TraceContext CausalTracer::chunk_cause(int job, int index) const {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(job)) << 32) |
      static_cast<std::uint32_t>(index);
  auto it = chunk_ctx_.find(key);
  return it == chunk_ctx_.end() ? TraceContext{} : it->second;
}

// --- Perfetto export ------------------------------------------------------

namespace {

/// Stable tid per lane within each node's process.
int lane_tid(SpanKind k) {
  const std::string_view l = lane(k);
  if (l == "mm") return 0;
  if (l == "nm") return 1;
  if (l == "pl") return 2;
  if (l == "ft") return 3;
  if (l == "jobs") return 4;
  return 5;
}

/// Perfetto pids must be non-negative; node -1 (cluster-wide spans,
/// e.g. MM failover) renders as a dedicated "cluster" process.
int span_pid(const SpanRecord& s) { return s.node < 0 ? 1000000 : s.node; }

void append_event_prefix(std::string& out, const char* ph, int pid, int tid,
                         std::int64_t ts_ns) {
  char buf[128];
  // ts is microseconds; 3 decimals represent nanoseconds exactly.
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%lld.%03lld",
                ph, pid, tid, static_cast<long long>(ts_ns / 1000),
                static_cast<long long>(ts_ns % 1000));
  out.append(buf);
}

}  // namespace

std::string to_perfetto_json(const TraceRecords& rec) {
  std::string out;
  out.reserve(256 + rec.spans.size() * 160 + rec.flows.size() * 220);
  out.append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");

  // Process / thread metadata: one process per node seen, one named
  // thread per lane used in that process. Collected sorted for
  // deterministic output.
  std::vector<std::pair<int, int>> lanes;  // (pid, tid)
  for (const auto& s : rec.spans) {
    lanes.emplace_back(span_pid(s), lane_tid(s.span_kind()));
  }
  std::sort(lanes.begin(), lanes.end());
  lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());

  bool first = true;
  auto sep = [&out, &first] {
    if (!first) out.append(",\n");
    first = false;
  };

  int last_pid = -1;
  for (const auto& [pid, tid] : lanes) {
    char buf2[160];
    if (pid != last_pid) {
      sep();
      if (pid >= 1000000) {
        std::snprintf(buf2, sizeof(buf2),
                      "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                      "\"args\":{\"name\":\"cluster\"}}",
                      pid);
      } else {
        std::snprintf(buf2, sizeof(buf2),
                      "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                      "\"args\":{\"name\":\"node %d\"}}",
                      pid, pid);
      }
      out.append(buf2);
      last_pid = pid;
    }
    static constexpr const char* kLaneNames[] = {"mm", "nm", "pl",
                                                 "ft", "jobs", "idle"};
    sep();
    std::snprintf(buf2, sizeof(buf2),
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                  "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                  pid, tid, kLaneNames[tid]);
    out.append(buf2);
  }

  // Closed spans as complete ("X") slices. Spans still open when the
  // run drained (parked dæmon loops) are skipped.
  for (const auto& s : rec.spans) {
    if (s.open()) continue;
    sep();
    append_event_prefix(out, "X", span_pid(s), lane_tid(s.span_kind()),
                        s.t_start_ns);
    char buf2[224];
    const std::int64_t dur = s.t_end_ns - s.t_start_ns;
    const std::string_view nm = to_string(s.span_kind());
    std::snprintf(buf2, sizeof(buf2),
                  ",\"dur\":%lld.%03lld,\"name\":\"%.*s\",\"args\":{"
                  "\"trace\":%llu,\"span\":%llu,\"parent\":%llu,"
                  "\"a\":%lld,\"b\":%lld}}",
                  static_cast<long long>(dur / 1000),
                  static_cast<long long>(dur % 1000),
                  static_cast<int>(nm.size()), nm.data(),
                  static_cast<unsigned long long>(s.trace),
                  static_cast<unsigned long long>(s.span),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<long long>(s.a), static_cast<long long>(s.b));
    out.append(buf2);
  }

  // Flow arrows between closed spans: "s" inside the source slice,
  // "f" (binding point "e") inside the destination slice.
  std::uint64_t flow_id = 0;
  for (const auto& f : rec.flows) {
    ++flow_id;
    const SpanRecord* from = rec.find(f.from);
    const SpanRecord* to = rec.find(f.to);
    if (from == nullptr || to == nullptr || from->open() || to->open())
      continue;
    char buf2[96];
    sep();
    append_event_prefix(out, "s", span_pid(*from),
                        lane_tid(from->span_kind()), from->t_start_ns);
    std::snprintf(buf2, sizeof(buf2), ",\"id\":%llu,\"name\":\"cause\"}",
                  static_cast<unsigned long long>(flow_id));
    out.append(buf2);
    sep();
    append_event_prefix(out, "f", span_pid(*to), lane_tid(to->span_kind()),
                        to->t_start_ns);
    std::snprintf(buf2, sizeof(buf2),
                  ",\"id\":%llu,\"bp\":\"e\",\"name\":\"cause\"}",
                  static_cast<unsigned long long>(flow_id));
    out.append(buf2);
  }

  out.append("\n]}\n");
  return out;
}

// --- critical-path analyzer -----------------------------------------------

LaunchCriticalPath analyze_launch(const TraceRecords& rec,
                                  std::uint64_t trace) {
  // Closed, non-root spans of this trace, in deterministic order.
  std::vector<const SpanRecord*> spans;
  for (const auto& s : rec.spans) {
    if (s.trace != trace || s.open()) continue;
    if (s.span_kind() == SpanKind::JobLaunch) continue;
    spans.push_back(&s);
  }
  LaunchCriticalPath cp;
  if (spans.empty()) return cp;

  std::int64_t lo = spans[0]->t_start_ns;
  std::int64_t hi = spans[0]->t_end_ns;
  std::int64_t busy = 0;
  for (const auto* s : spans) {
    lo = std::min(lo, s->t_start_ns);
    hi = std::max(hi, s->t_end_ns);
    busy += s->t_end_ns - s->t_start_ns;
  }
  cp.total_ns = hi - lo;
  cp.spans = static_cast<int>(spans.size());
  cp.overlap_factor =
      cp.total_ns > 0 ? static_cast<double>(busy) /
                            static_cast<double>(cp.total_ns)
                      : 0.0;

  // Greedy backward walk: from the latest end, repeatedly step to the
  // latest-finishing span at or before the cursor, attributing its
  // duration to its kind and any uncovered gap to Idle.
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              if (a->t_end_ns != b->t_end_ns) return a->t_end_ns < b->t_end_ns;
              if (a->t_start_ns != b->t_start_ns)
                return a->t_start_ns < b->t_start_ns;
              return a->span < b->span;
            });
  std::int64_t t = hi;
  auto idle = [&cp](std::int64_t ns) {
    cp.per_kind_ns[static_cast<std::size_t>(SpanKind::Idle)] += ns;
  };
  // Index of the last span with t_end <= t (spans sorted by t_end).
  auto last_at_or_before = [&spans](std::int64_t cut) -> std::ptrdiff_t {
    auto it = std::upper_bound(
        spans.begin(), spans.end(), cut,
        [](std::int64_t v, const SpanRecord* s) { return v < s->t_end_ns; });
    return it - spans.begin() - 1;
  };
  while (t > lo) {
    const std::ptrdiff_t i = last_at_or_before(t);
    if (i < 0) {
      idle(t - lo);
      break;
    }
    const SpanRecord* s = spans[static_cast<std::size_t>(i)];
    if (s->t_end_ns < t) idle(t - s->t_end_ns);
    cp.per_kind_ns[s->kind] += s->t_end_ns - s->t_start_ns;
    t = s->t_start_ns;
  }
  return cp;
}

std::string format_critical_path(const LaunchCriticalPath& cp) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "  critical path %.3f ms over %d spans (overlap x%.2f)\n",
                static_cast<double>(cp.total_ns) / 1e6, cp.spans,
                cp.overlap_factor);
  out.append(buf);
  // Kinds sorted by descending share for readability; ties by enum
  // order (stable sort over the fixed array).
  std::vector<std::pair<std::int64_t, int>> rows;
  for (int k = 0; k < kSpanKindCount; ++k) {
    if (cp.per_kind_ns[static_cast<std::size_t>(k)] > 0) {
      rows.emplace_back(cp.per_kind_ns[static_cast<std::size_t>(k)], k);
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [ns, k] : rows) {
    const std::string_view nm = to_string(static_cast<SpanKind>(k));
    const double pct = cp.total_ns > 0
                           ? 100.0 * static_cast<double>(ns) /
                                 static_cast<double>(cp.total_ns)
                           : 0.0;
    std::snprintf(buf, sizeof(buf), "    %-16.*s %6.1f%%  %10.3f ms\n",
                  static_cast<int>(nm.size()), nm.data(), pct,
                  static_cast<double>(ns) / 1e6);
    out.append(buf);
  }
  return out;
}

}  // namespace storm::telemetry
