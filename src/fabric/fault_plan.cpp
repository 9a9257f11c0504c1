#include "fabric/fault_plan.hpp"

namespace storm::fabric {

using sim::SimTime;

namespace {

constexpr std::uint16_t class_bit(MsgClass c) {
  return static_cast<std::uint16_t>(1u << static_cast<int>(c));
}

std::uint16_t class_mask(const std::vector<MsgClass>& classes) {
  std::uint16_t m = classes.empty() ? FaultRule::kEveryClass : 0;
  for (const MsgClass c : classes) m |= class_bit(c);
  return m;
}

/// The operation kinds StructuredTraceSink records by default: a replay
/// script holds exactly these, so its lockstep position matches the
/// recording regardless of per-poll noise.
constexpr std::uint16_t kReplayedOps =
    FaultRule::kNetworkOps | op_bit(OpKind::Note);

constexpr bool same_identity(const TraceRecord& r, const Envelope& e) {
  return r.op == static_cast<std::uint8_t>(e.op) &&
         r.cls == static_cast<std::uint8_t>(e.cls()) &&
         r.src == e.src && r.dst_first == e.dsts.first &&
         r.dst_count == e.dsts.count && r.a == e.msg.word_a() &&
         r.b == e.msg.word_b();
}

/// Whether `e` must reach a node of `set` (see the table in the header).
bool reaches(const NodeSet& set, const Envelope& e) {
  if (set.every()) return true;
  switch (e.op) {
    case OpKind::CommandDeliver: return set.contains(e.dsts.first);
    case OpKind::CompareAndWrite: return set.count_in(e.dsts) > 0;
    case OpKind::Xfer:
      return e.dsts.count > 0 && set.count_in(e.dsts) == e.dsts.count;
    default: return false;
  }
}

}  // namespace

NodeSet NodeSet::of(const std::vector<int>& nodes) {
  NodeSet s;
  s.every_ = false;
  for (const int n : nodes) {
    if (n < 0) continue;
    const auto u = static_cast<std::size_t>(n);
    if (u / 64 >= s.words_.size()) s.words_.resize(u / 64 + 1, 0);
    s.words_[u / 64] |= std::uint64_t{1} << (u % 64);
  }
  return s;
}

FaultRule FaultRule::lossy(MsgClass c, double p) {
  FaultRule r(kNetworkOps, class_bit(c), Act::Drop);
  r.p = p;
  return r;
}

FaultRule FaultRule::drop_next(MsgClass c, int node, std::int64_t n) {
  FaultRule r(op_bit(OpKind::CommandDeliver), class_bit(c), Act::Drop);
  if (node >= 0) r.dst = NodeSet::of({node});
  r.left = n;
  return r;
}

FaultRule FaultRule::jitter(MsgClass c, Dist dist, SimTime base,
                            SimTime spread) {
  FaultRule r(op_bit(OpKind::Xfer) | op_bit(OpKind::CompareAndWrite) |
                  op_bit(OpKind::CommandMulticast),
              class_bit(c), Act::Delay);
  r.dist = dist;
  r.base = base;
  r.spread = spread;
  return r;
}

FaultRule FaultRule::reorder(SimTime window,
                             const std::vector<MsgClass>& classes) {
  FaultRule r(op_bit(OpKind::CommandDeliver), class_mask(classes),
              Act::Delay);
  r.dist = Dist::Uniform;
  r.spread = window;
  return r;
}

FaultRule FaultRule::silence(int node) {
  FaultRule r(kNetworkOps, kEveryClass, Act::Drop);
  r.src = r.dst = NodeSet::of({node});
  r.src_or_dst = true;
  return r;
}

FaultRule FaultRule::one_way(const std::vector<int>& from,
                             const std::vector<int>& to,
                             const std::vector<MsgClass>& classes,
                             SimTime start, SimTime end) {
  FaultRule r(kNetworkOps, class_mask(classes), Act::Drop);
  r.src = NodeSet::of(from);
  r.dst = NodeSet::of(to);
  r.start = start;
  r.end = end;
  return r;
}

FaultRule FaultRule::partition(const std::vector<int>& island, SimTime start,
                               SimTime end) {
  FaultRule r(op_bit(OpKind::Xfer) | op_bit(OpKind::CompareAndWrite) |
                  op_bit(OpKind::CommandDeliver),
              kEveryClass, Act::Cut);
  r.island = NodeSet::of(island);
  r.start = start;
  r.end = end;
  return r;
}

FaultRule FaultRule::replay(const std::vector<TraceRecord>& records) {
  FaultRule r(kReplayedOps, kEveryClass, Act::Replay);
  for (const TraceRecord& rec : records) {
    if (rec.op < kOpKindCount && (kReplayedOps & (1u << rec.op)) != 0) {
      r.script_.push_back(rec);
    }
  }
  return r;
}

bool FaultRule::selects(const Envelope& e) const {
  if (act == Act::Cut) {  // some destination sits across the island edge
    const int inside = island.count_in(e.dsts);
    return island.contains(e.src) ? inside < e.dsts.count : inside > 0;
  }
  const bool from = src.contains(e.src);
  return src_or_dst ? from || reaches(dst, e) : from && reaches(dst, e);
}

bool FaultRule::step_replay(const Envelope& e) {
  if (pos_ >= script_.size()) {
    ++mismatches_;  // the run produced more operations than recorded
    return false;
  }
  const TraceRecord& r = script_[pos_++];
  if (!same_identity(r, e)) {
    ++mismatches_;  // diverged: never drop on a guess
    return false;
  }
  return r.dropped();
}

void FaultPlan::apply(const Envelope& e, Action& a) {
  const std::uint16_t op = op_bit(e.op);
  const std::uint16_t cls = class_bit(e.cls());
  const SimTime now = sim_.now();
  bool dropped = false;
  for (FaultRule& r : rules_) {
    if ((r.ops & op) == 0 || (r.classes & cls) == 0) continue;
    if (r.act == FaultRule::Act::Replay) {
      if (r.step_replay(e)) {
        ++r.hits_;
        a.drop = dropped = true;
      }
      continue;
    }
    if (dropped || now < r.start || now >= r.end || !r.selects(e)) continue;
    if (r.left == 0 || r.p <= 0.0 || (r.p < 1.0 && !rng_.bernoulli(r.p))) {
      continue;
    }
    if (r.left > 0) --r.left;
    ++r.hits_;
    const double spread = r.spread.to_seconds();
    switch (r.act) {
      case FaultRule::Act::Drop:
      case FaultRule::Act::Cut:
        a.drop = dropped = true;
        break;
      case FaultRule::Act::Duplicate:
        ++a.duplicates;
        break;
      case FaultRule::Act::Delay:
        a.delay += r.base;
        if (spread <= 0.0 || r.dist == FaultRule::Dist::Constant) break;
        a.delay += SimTime::seconds(r.dist == FaultRule::Dist::Uniform
                                        ? rng_.uniform(0.0, spread)
                                        : rng_.exponential(spread));
        break;
      case FaultRule::Act::Replay:
        break;
    }
  }
}

}  // namespace storm::fabric
