// FaultPlan: the fabric's one fault middleware — an ordered table of
// rules. Each rule is a filter (which envelopes), an action (what
// happens to them) and a firing mode (how often). Lossy classes, armed
// one-shot drops, latency jitter, delivery reordering, silenced nodes,
// one-way cuts, switch partitions and replayed recordings are all rules
// built by the named constructors on FaultRule.
//
// Evaluation visits the rules in order. A rule matches an envelope when
// its op kind and message class are in the rule's masks, sim.now() lies
// in [start, end), and the node filter accepts the endpoints; it then
// fires per its mode and applies its action. Evaluation stops at the
// first rule that drops the envelope — except that replay rules still
// see it, so their lockstep position never skips an envelope.
//
// Node filters, per operation kind (`dst` is a set of nodes):
//   CommandDeliver    the one destination is in `dst`;
//   CompareAndWrite   any destination is in `dst` — an unreachable node
//                     cannot acknowledge, so the conjunction reads
//                     "condition not met";
//   Xfer              every destination is in `dst` — a multicast that
//                     only grazes the set is left intact;
//   CommandMulticast  never: the per-node deliveries carry the cut.
// Cut keeps the hardware multicast atomic: it drops any Xfer, CAW or
// delivery with a destination on the other side of its island from
// the source, so a transfer spanning the cut is lost whole.
//
// Determinism: the plan owns one sim::Rng and draws from it in rule
// order, only for a firing probability strictly between 0 and 1 and for
// a uniform or exponential delay with a positive spread. Any other rule
// never draws, so a scripted plan needs no stream of its own.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "fabric/fabric.hpp"
#include "fabric/trace_sink.hpp"
#include "sim/random.hpp"

namespace storm::fabric {

constexpr std::uint16_t op_bit(OpKind op) {
  return static_cast<std::uint16_t>(1u << static_cast<int>(op));
}

/// Set of node ids as a bitset; default-constructed it holds every node.
class NodeSet {
 public:
  NodeSet() = default;
  static NodeSet of(const std::vector<int>& nodes);

  bool every() const { return every_; }
  bool contains(int node) const {
    if (every_) return true;
    const auto n = static_cast<std::size_t>(node);
    return node >= 0 && n / 64 < words_.size() &&
           (words_[n / 64] >> (n % 64) & 1) != 0;
  }
  /// How many nodes of `r` the set holds.
  int count_in(net::NodeRange r) const {
    int n = 0;
    for (int i = r.first; i <= r.last(); ++i) n += contains(i) ? 1 : 0;
    return n;
  }

 private:
  std::vector<std::uint64_t> words_;
  bool every_ = true;
};

class FaultRule {
 public:
  enum class Act : std::uint8_t { Drop, Delay, Duplicate, Cut, Replay };
  enum class Dist : std::uint8_t { Constant, Uniform, Exponential };

  /// The wire operations faults apply to (local NIC ops are observe-only).
  static constexpr std::uint16_t kNetworkOps =
      op_bit(OpKind::Xfer) | op_bit(OpKind::CompareAndWrite) |
      op_bit(OpKind::CommandMulticast) | op_bit(OpKind::CommandDeliver);
  static constexpr std::uint16_t kEveryClass = (1u << kMsgClassCount) - 1;

  // --- filter ----------------------------------------------------------
  std::uint16_t ops = kNetworkOps;      // bit per OpKind
  std::uint16_t classes = kEveryClass;  // bit per MsgClass
  NodeSet src;                          // issuing node
  NodeSet dst;                          // destinations, per the table above
  bool src_or_dst = false;              // match either side, not both
  sim::SimTime start{};
  sim::SimTime end = sim::SimTime::max();
  // --- action ----------------------------------------------------------
  Act act = Act::Drop;
  Dist dist = Dist::Constant;  // Delay: base + draw(spread)
  sim::SimTime base{};
  sim::SimTime spread{};
  NodeSet island;  // Cut
  // --- firing ----------------------------------------------------------
  double p = 1.0;          // fire with probability p (1: always, no draw)
  std::int64_t left = -1;  // fire on the next `left` matches (< 0: all)

  // --- constructors ------------------------------------------------------
  /// Drop every wire operation of class `c` with probability `p`.
  static FaultRule lossy(MsgClass c, double p);
  /// Drop the next `n` deliveries of class `c` to `node` (any node if < 0).
  static FaultRule drop_next(MsgClass c, int node = -1, std::int64_t n = 1);
  /// Delay the wire leg of class `c` (once per multicast, not per node).
  static FaultRule jitter(MsgClass c, Dist dist, sim::SimTime base,
                          sim::SimTime spread);
  /// Hold each delivery of `classes` (all if empty) for U[0, window):
  /// back-to-back deliveries swap whenever their draws differ by more
  /// than the gap between them.
  static FaultRule reorder(sim::SimTime window,
                           const std::vector<MsgClass>& classes = {});
  /// Black out `node`: everything it sources and everything that must
  /// reach it.
  static FaultRule silence(int node);
  /// `from` can no longer reach `to` during [start, end); the reverse
  /// direction still delivers. `classes` empty: every class.
  static FaultRule one_way(const std::vector<int>& from,
                           const std::vector<int>& to,
                           const std::vector<MsgClass>& classes = {},
                           sim::SimTime start = {},
                           sim::SimTime end = sim::SimTime::max());
  /// Cut `island` off from the rest of the machine during [start, end).
  static FaultRule partition(const std::vector<int>& island,
                             sim::SimTime start, sim::SimTime end);
  /// Re-apply the drop verdicts of a recorded sink stream in lockstep:
  /// operation N of the run is operation N of the recording. Envelopes
  /// that do not match the recorded operation are counted as
  /// mismatches and never dropped.
  static FaultRule replay(const std::vector<TraceRecord>& records);

  // --- counters ----------------------------------------------------------
  /// Envelopes this rule acted on.
  std::int64_t hits() const { return hits_; }
  /// Replay: recorded operations consumed, and envelopes that diverged.
  std::size_t position() const { return pos_; }
  std::size_t mismatches() const { return mismatches_; }

 private:
  friend class FaultPlan;
  FaultRule(std::uint16_t ops_mask, std::uint16_t class_mask, Act action)
      : ops(ops_mask), classes(class_mask), act(action) {}
  bool selects(const Envelope& e) const;
  bool step_replay(const Envelope& e);  // true: the recording dropped it

  std::vector<TraceRecord> script_;  // Replay: replayed-kind records only
  std::size_t pos_ = 0;
  std::size_t mismatches_ = 0;
  std::int64_t hits_ = 0;
};

class FaultPlan final : public Middleware {
 public:
  explicit FaultPlan(const sim::Simulator& sim, sim::Rng rng = sim::Rng{0})
      : sim_(sim), rng_(rng) {}

  /// Append a rule (it is evaluated after every earlier one); returns
  /// its index for rule().
  std::size_t add(FaultRule r) {
    rules_.push_back(std::move(r));
    return rules_.size() - 1;
  }
  const FaultRule& rule(std::size_t i) const { return rules_.at(i); }
  std::size_t size() const { return rules_.size(); }

  std::string_view name() const override { return "fault-plan"; }
  void apply(const Envelope& e, Action& a) override;

 private:
  const sim::Simulator& sim_;
  sim::Rng rng_;
  std::vector<FaultRule> rules_;
};

}  // namespace storm::fabric
