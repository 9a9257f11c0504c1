#include "fabric/trace_sink.hpp"

#include <algorithm>
#include <cstdio>

namespace storm::fabric {

void StructuredTraceSink::linearize() const {
  if (head_ == 0) return;
  std::rotate(records_.begin(),
              records_.begin() + static_cast<std::ptrdiff_t>(head_),
              records_.end());
  head_ = 0;
}

void StructuredTraceSink::set_capacity(std::size_t n) {
  capacity_ = n;
  if (capacity_ == 0 || records_.size() <= capacity_) return;
  linearize();
  const std::size_t surplus = records_.size() - capacity_;
  records_.erase(records_.begin(),
                 records_.begin() + static_cast<std::ptrdiff_t>(surplus));
  evicted_ += surplus;
}

void StructuredTraceSink::observe(const Envelope& e, const Action& a) {
  if (!recorded_[static_cast<std::size_t>(e.op)]) return;
  TraceRecord r;
  r.t_ns = sim_.now().raw_ns();
  r.op = static_cast<std::uint8_t>(e.op);
  r.cls = static_cast<std::uint8_t>(e.cls());
  r.component = static_cast<std::uint8_t>(e.component);
  r.flags = static_cast<std::uint8_t>(
      (a.drop ? TraceRecord::kDropped : 0) |
      (a.delay > sim::SimTime::zero() ? TraceRecord::kDelayed : 0) |
      (a.duplicates > 0 ? TraceRecord::kDuplicated : 0));
  r.src = e.src;
  r.dst_first = e.dsts.first;
  r.dst_count = e.dsts.count;
  r.a = e.msg.word_a();
  r.b = e.msg.word_b();
  if (capacity_ > 0 && records_.size() >= capacity_) {
    records_[head_] = r;
    head_ = (head_ + 1) % records_.size();
    ++evicted_;
  } else {
    records_.push_back(r);
  }

  if (echo_) {
    std::fprintf(stderr,
                 "[%12.6f ms] %-4.*s %-11.*s %-10.*s %d->[%d+%d] a=%lld "
                 "b=%lld%s%s%s\n",
                 sim_.now().to_millis(),
                 static_cast<int>(to_string(e.component).size()),
                 to_string(e.component).data(),
                 static_cast<int>(to_string(e.op).size()),
                 to_string(e.op).data(),
                 static_cast<int>(to_string(e.cls()).size()),
                 to_string(e.cls()).data(), e.src, e.dsts.first, e.dsts.count,
                 static_cast<long long>(r.a), static_cast<long long>(r.b),
                 r.dropped() ? " DROPPED" : "", r.delayed() ? " DELAYED" : "",
                 r.duplicated() ? " DUPLICATED" : "");
  }
}

std::size_t StructuredTraceSink::count(MsgClass c) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.msg_class() == c) ++n;
  }
  return n;
}

std::size_t StructuredTraceSink::count(OpKind op) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.op_kind() == op) ++n;
  }
  return n;
}

std::size_t StructuredTraceSink::count(MsgClass c, OpKind op) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.msg_class() == c && r.op_kind() == op) ++n;
  }
  return n;
}

std::size_t StructuredTraceSink::dropped_count(MsgClass c) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.msg_class() == c && r.dropped()) ++n;
  }
  return n;
}

std::vector<std::uint8_t> StructuredTraceSink::bytes() const {
  using detail::put_u32;
  using detail::put_u64;
  linearize();  // serialise oldest-first regardless of ring state
  std::vector<std::uint8_t> out(records_.size() * kTraceRecordBytes);
  std::uint8_t* p = out.data();
  for (const auto& r : records_) {  // TraceReplayer::from_bytes inverts this
    put_u64(p, static_cast<std::uint64_t>(r.t_ns));
    p[8] = r.op;
    p[9] = r.cls;
    p[10] = r.component;
    p[11] = r.flags;
    put_u32(p + 12, static_cast<std::uint32_t>(r.src));
    put_u32(p + 16, static_cast<std::uint32_t>(r.dst_first));
    put_u32(p + 20, static_cast<std::uint32_t>(r.dst_count));
    put_u64(p + 24, static_cast<std::uint64_t>(r.a));
    put_u64(p + 32, static_cast<std::uint64_t>(r.b));
    p += kTraceRecordBytes;
  }
  return out;
}

}  // namespace storm::fabric
