// Invariants-as-queries (DESIGN.md §3.5): a registry of named
// predicates over a StateSnapshot, each a plain loop over its tables,
// so the same checks run against a captured live cluster from tests,
// against a parsed `storm.state.v1` snapshot from `statectl check`,
// and periodically *inside* a simulation via InvariantProbe.
//
// Formulation note — declared vs ground truth. The state plane's
// failed bit is what the NIC knows the instant a node dies; the MM's
// failed list and the matrix's evicted bits are what the management
// plane has *declared*, which lags detection by design (heartbeat
// slack) and can disagree under partition (a declared-dead node is
// physically alive and its PLs legitimately busy). Invariants
// therefore pair each consequence with the authority that implies it:
// plane-failed implies idle PLs; matrix-evicted implies no cells.
// Between a crash and its declaration the matrix may reference a dead
// node — that window is correct behaviour, not a violation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "query/snapshot.hpp"
#include "sim/time.hpp"

namespace storm::query {

struct Violation {
  std::string invariant;
  std::string detail;
};

struct InvariantReport {
  int invariants_run = 0;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  /// "ok (N invariants)" or one line per violation.
  std::string summary() const;
};

struct Invariant {
  std::string name;
  std::string description;
  std::function<void(const StateSnapshot&, std::vector<Violation>&)> check;
};

/// The built-in invariant registry (fixed order).
const std::vector<Invariant>& invariant_registry();

/// Run every registered invariant against `s`.
InvariantReport check_invariants(const StateSnapshot& s);

/// check_invariants(capture(cluster)), without copying the spans no
/// invariant reads.
InvariantReport check_invariants(core::Cluster& cluster);

/// Periodic in-simulation checker: once armed, re-runs
/// check_invariants over a fresh capture every `period` of simulated
/// time and accumulates violations (the first kMaxViolations kept).
/// Probe events are pure reads — they never touch cluster state,
/// consume randomness, or alter the relative order of other events, so
/// arming a probe preserves a run's output byte-for-byte.
class InvariantProbe {
 public:
  static constexpr std::size_t kMaxViolations = 64;

  InvariantProbe(core::Cluster& cluster, sim::SimTime period);
  ~InvariantProbe();

  /// Schedule the first check at now + period (idempotent).
  void arm();
  /// Stop rescheduling (a pending event becomes a no-op).
  void disarm();

  std::int64_t checks() const;
  const std::vector<Violation>& violations() const;
  bool ok() const { return violations().empty(); }

 private:
  struct State;
  static void schedule(const std::shared_ptr<State>& st);

  std::shared_ptr<State> state_;
};

}  // namespace storm::query
