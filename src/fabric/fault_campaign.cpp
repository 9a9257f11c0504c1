#include "fabric/fault_campaign.hpp"

#include <algorithm>

namespace storm::fabric {

using sim::SimTime;

void FaultCampaign::sort_events() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Event& a, const Event& b) {
                     if (a.at != b.at) return a.at < b.at;
                     if (a.kind != b.kind) return a.kind < b.kind;
                     return a.node < b.node;
                   });
}

FaultCampaign FaultCampaign::seeded(sim::Rng rng, const SeedSpec& spec) {
  FaultCampaign c;
  // Candidate victims: every node not on the protect list.
  std::vector<int> candidates;
  candidates.reserve(static_cast<std::size_t>(spec.nodes));
  for (int n = 0; n < spec.nodes; ++n) {
    if (std::find(spec.protect.begin(), spec.protect.end(), n) ==
        spec.protect.end()) {
      candidates.push_back(n);
    }
  }
  const double span =
      (spec.window_end - spec.window_start).to_seconds();
  const int crashes =
      std::min(spec.crashes, static_cast<int>(candidates.size()));
  for (int i = 0; i < crashes; ++i) {
    const std::size_t pick = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(candidates.size())));
    const int node = candidates[pick];
    candidates.erase(candidates.begin() +
                     static_cast<std::ptrdiff_t>(pick));
    const SimTime at =
        spec.window_start +
        SimTime::seconds(span > 0.0 ? rng.uniform(0.0, span) : 0.0);
    c.crash_node(node, at);
    if (spec.max_downtime > SimTime::zero()) {
      const double down = rng.uniform(spec.min_downtime.to_seconds(),
                                      spec.max_downtime.to_seconds());
      c.recover_node(node, at + SimTime::seconds(down));
    }
  }
  c.sort_events();
  return c;
}

std::shared_ptr<FaultPlan> FaultCampaign::arm(sim::Simulator& sim,
                                              MechanismFabric* fabric,
                                              CampaignHooks hooks) {
  sort_events();
  // The hooks outlive the lambdas via shared ownership: one campaign
  // armed once may fire long after the FaultCampaign object is gone.
  auto shared = std::make_shared<CampaignHooks>(std::move(hooks));
  for (const Event& ev : events_) {
    // A Fault note lands in the structured trace right before each hook
    // fires, making a recorded run's campaign self-describing: the
    // TraceReplayer reconstructs the schedule from these notes alone.
    sim.schedule_at(ev.at, [shared, fabric, ev] {
      if (fabric != nullptr) {
        fabric->note(Component::None, ev.node,
                     ControlMessage::fault(static_cast<int>(ev.kind), ev.node));
      }
      switch (ev.kind) {
        case EventKind::CrashNode:
          if (shared->crash_node) shared->crash_node(ev.node);
          break;
        case EventKind::RecoverNode:
          if (shared->recover_node) shared->recover_node(ev.node);
          break;
        case EventKind::CrashPrimaryMm:
          if (shared->crash_primary_mm) shared->crash_primary_mm();
          break;
      }
    });
  }
  // Windows are config, not trace events: no Fault notes, and a
  // windowed rule checks sim.now() itself, so nothing is scheduled.
  if (fabric == nullptr || (partitions_.empty() && one_way_.empty())) {
    return nullptr;
  }
  auto plan = std::make_shared<FaultPlan>(sim);
  for (const PartitionWindow& w : partitions_) {
    plan->add(FaultRule::partition(w.island, w.start, w.end));
  }
  for (const FaultRule& r : one_way_) plan->add(r);
  fabric->push(plan);
  return plan;
}

}  // namespace storm::fabric
