// Deterministic fault-campaign harness: a scripted (or seeded)
// schedule of node crashes, recoveries, primary-MM death and network
// partitions, driven into a running cluster through plain callbacks.
//
// The campaign lives in the fabric layer and knows nothing about the
// dæmons: the harness (bench/fig_recovery, examples, tests) supplies
// CampaignHooks that translate "crash node 7" into whatever the system
// under test does about it. The schedule itself is computed up front —
// seeded generation consumes randomness only at build time, never
// while the simulation runs — so two same-seed campaigns inject the
// identical fault sequence at the identical simulated instants, and
// byte-identical runs remain testable end to end.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fabric/fabric.hpp"
#include "fabric/fault_plan.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace storm::fabric {

/// How the campaign acts on the system under test. Any hook may be
/// left empty; matching events then become no-ops.
struct CampaignHooks {
  std::function<void(int node)> crash_node;
  std::function<void(int node)> recover_node;
  std::function<void()> crash_primary_mm;
};

class FaultCampaign {
 public:
  enum class EventKind : std::uint8_t {
    CrashNode = 0,
    RecoverNode,
    CrashPrimaryMm,
  };
  struct Event {
    sim::SimTime at{};
    EventKind kind = EventKind::CrashNode;
    int node = -1;  // -1 for CrashPrimaryMm
  };
  struct PartitionWindow {
    std::vector<int> island;
    sim::SimTime start{};
    sim::SimTime end{};
  };

  // --- scripted construction ---------------------------------------------
  void crash_node(int node, sim::SimTime at) {
    events_.push_back(Event{at, EventKind::CrashNode, node});
  }
  void recover_node(int node, sim::SimTime at) {
    events_.push_back(Event{at, EventKind::RecoverNode, node});
  }
  void crash_primary_mm(sim::SimTime at) {
    events_.push_back(Event{at, EventKind::CrashPrimaryMm, -1});
  }
  void partition(std::vector<int> island, sim::SimTime start,
                 sim::SimTime end) {
    partitions_.push_back(PartitionWindow{std::move(island), start, end});
  }
  /// One-way cut: `from` can no longer reach `to` (the reverse
  /// direction still delivers), optionally restricted to a set of
  /// message classes. Split-brain campaigns use this to take a
  /// leader's acks away without deafening it.
  void asym_partition(const std::vector<int>& from, const std::vector<int>& to,
                      sim::SimTime start, sim::SimTime end,
                      const std::vector<MsgClass>& classes = {}) {
    one_way_.push_back(FaultRule::one_way(from, to, classes, start, end));
  }

  // --- seeded construction -------------------------------------------------
  struct SeedSpec {
    int nodes = 0;          // machine size
    int crashes = 1;        // distinct nodes to crash
    sim::SimTime window_start{};
    sim::SimTime window_end{};
    // Downtime sampled U[min, max]; max == 0 means crashed nodes never
    // recover within the campaign.
    sim::SimTime min_downtime{};
    sim::SimTime max_downtime{};
    std::vector<int> protect;  // nodes exempt from crashing (MMs)
  };
  /// Build a deterministic schedule from `rng` (fork it from the
  /// simulation's master stream). All randomness is consumed here.
  static FaultCampaign seeded(sim::Rng rng, const SeedSpec& spec);

  // --- installation --------------------------------------------------------
  /// Schedule every event on `sim`. When partition or asymmetric
  /// windows exist, one FaultPlan holding them as windowed rules
  /// (partitions first, then asym windows, each in insertion order) is
  /// pushed onto `fabric` and returned — nullptr otherwise, or when
  /// `fabric` is null. The plan draws no randomness.
  std::shared_ptr<FaultPlan> arm(sim::Simulator& sim, MechanismFabric* fabric,
                                 CampaignHooks hooks);

  /// Events sorted by (time, kind, node) — the order arm() fires them.
  const std::vector<Event>& events() {
    sort_events();
    return events_;
  }
  const std::vector<PartitionWindow>& partitions() const {
    return partitions_;
  }

 private:
  void sort_events();

  std::vector<Event> events_;
  std::vector<PartitionWindow> partitions_;
  std::vector<FaultRule> one_way_;  // asym_partition() windows
};

}  // namespace storm::fabric
