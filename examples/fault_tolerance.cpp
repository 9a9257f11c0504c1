// Fault detection via the STORM mechanisms (Section 4, "Generality of
// Mechanisms"): the MM multicasts a heartbeat with XFER-AND-SIGNAL
// each period and queries receipt with COMPARE-AND-WRITE; a node that
// misses the query is isolated node-by-node.
//
// Part 1 kills two nodes at different times and reports the detection
// latency of each.
//
// Part 2 uses the control-plane fabric's FaultPlan middleware instead
// of killing hardware: a lossy rule drops gang-scheduling strobes with
// probability 0.01, and drop-next rules swallow one heartbeat delivery
// to node 5 and, from 300 ms on, two in a row to node 9. The detector
// tolerates a single late epoch (the NM dæmon shares its CPU with
// application PEs), so one lost heartbeat is absorbed — but two in a
// row are indistinguishable from death and the node is isolated. The
// lost strobes are *recovered* (each strobe carries the absolute
// matrix row, so the next one resyncs and the jobs complete), and the
// whole faulty run is deterministic: two executions with the same seed
// produce byte-identical structured traces.
//
// Part 3 walks the full recovery lifecycle: a node dies mid-run, the
// heartbeat declares it, the MM kills the gang spanning it, evicts the
// node from the buddy trees and requeues the job; a fresh incarnation
// lands on surviving nodes and completes; the dead node comes back and
// re-registers with a clean slate. The dæmons' own telemetry tells the
// same story in numbers.
#include <cstdio>
#include <string>
#include <vector>

#include "fabric/fault_plan.hpp"
#include "fabric/trace_sink.hpp"
#include "storm/cluster.hpp"
#include "storm/job.hpp"
#include "storm/machine_manager.hpp"
#include "telemetry/metrics.hpp"

using namespace storm;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

namespace {

int part1_hardware_failures() {
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(32);
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;  // 50 ms heartbeat period
  core::Cluster cluster(sim, cfg);

  struct Detection {
    int node;
    double at_s;
  };
  std::vector<Detection> detections;
  cluster.mm().set_failure_callback([&](int node, sim::SimTime when) {
    detections.push_back({node, when.to_seconds()});
    std::printf("[%8.3f s] MM isolated failed node %d\n", when.to_seconds(),
                node);
  });

  std::printf("32-node cluster, 50 ms heartbeat; killing node 11 at t=1.017s "
              "and node 23 at t=2.519s\n\n");
  double killed_11 = 0, killed_23 = 0;
  sim.schedule_at(sim::SimTime::millis(1017), [&] {
    killed_11 = sim.now().to_seconds();
    std::printf("[%8.3f s] node 11 dies\n", killed_11);
    cluster.crash_node(11);
  });
  sim.schedule_at(sim::SimTime::millis(2519), [&] {
    killed_23 = sim.now().to_seconds();
    std::printf("[%8.3f s] node 23 dies\n", killed_23);
    cluster.crash_node(23);
  });

  sim.run(5_sec);

  std::printf("\n");
  if (detections.size() != 2) {
    std::fprintf(stderr, "expected 2 detections, saw %zu\n",
                 detections.size());
    return 1;
  }
  for (const auto& d : detections) {
    const double killed = d.node == 11 ? killed_11 : killed_23;
    std::printf("node %2d detected after %.0f ms\n", d.node,
                (d.at_s - killed) * 1e3);
  }
  std::printf(
      "\nDetection costs one COMPARE-AND-WRITE per period (~%.1f us on 32\n"
      "nodes) — cheap enough to run at every timeslice if desired.\n",
      cluster.mech().caw_latency(32).to_micros());
  return 0;
}

struct FaultyRun {
  std::vector<int> isolated;           // nodes the MM isolated, in order
  double isolated_at_s = 0;            // first isolation time
  int completed = 0;                   // jobs that finished
  std::int64_t strobes_dropped = 0;    // injected strobe losses
  std::int64_t heartbeats_dropped = 0;
  std::vector<std::uint8_t> trace;     // serialised structured trace
  telemetry::MetricsRegistry metrics;  // fabric aggregator snapshot
};

FaultyRun run_injected_faults() {
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(16);
  cfg.app_cpus_per_node = 2;
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;
  core::Cluster cluster(sim, cfg);
  cluster.enable_fabric_metrics();

  // Middleware chain: inject faults, then record everything.
  using fabric::FaultRule;
  using fabric::MsgClass;
  auto plan =
      std::make_shared<fabric::FaultPlan>(sim, sim.rng().fork(0xFAB51C));
  const std::size_t strobe_loss =
      plan->add(FaultRule::lossy(MsgClass::Strobe, 0.01));
  // One lost heartbeat to node 5 (forgiven), then — armed from 300 ms
  // on — two in a row to node 9 (declared dead).
  const std::size_t hb_5 =
      plan->add(FaultRule::drop_next(MsgClass::Heartbeat, /*node=*/5));
  FaultRule two_to_9 =
      FaultRule::drop_next(MsgClass::Heartbeat, /*node=*/9, /*n=*/2);
  two_to_9.start = 300_ms;
  const std::size_t hb_9 = plan->add(two_to_9);
  auto sink = std::make_shared<fabric::StructuredTraceSink>(sim);
  cluster.fabric().push(plan);
  cluster.fabric().push(sink);

  FaultyRun out;
  cluster.mm().set_failure_callback([&](int node, sim::SimTime when) {
    if (out.isolated.empty()) out.isolated_at_s = when.to_seconds();
    out.isolated.push_back(node);
  });

  // A gang-scheduled workload that outlives many strobes. 8 nodes per
  // gang, so when node 9's gang is killed and requeued it can re-place
  // on the surviving half of the machine.
  auto work = [](core::AppContext& ctx) -> sim::Task<> {
    co_await ctx.compute(2_sec);
  };
  cluster.submit(
      {.name = "gang-a", .binary_size = 1_MB, .npes = 16, .program = work});
  cluster.submit(
      {.name = "gang-b", .binary_size = 1_MB, .npes = 16, .program = work});
  cluster.run_until_all_complete(120_sec);
  sim.run(sim.now() + 200_ms);  // let the post-completion heartbeat settle

  out.completed = cluster.mm().completed_count();
  out.strobes_dropped = plan->rule(strobe_loss).hits();
  out.heartbeats_dropped =
      plan->rule(hb_5).hits() + plan->rule(hb_9).hits();
  out.trace = sink->bytes();
  out.metrics = cluster.metrics();
  return out;
}

int part2_injected_faults() {
  std::printf(
      "\n=== fabric fault injection: drop strobes (p=0.01) and three "
      "heartbeats ===\n\n16 nodes, two 8-node 2 s gangs, 10 ms strobes, 50 ms "
      "heartbeat; one\nheartbeat delivery to node 5 is swallowed, then two in "
      "a row to node 9.\n\n");

  const FaultyRun a = run_injected_faults();
  const FaultyRun b = run_injected_faults();

  std::printf("strobe messages dropped ........ %lld\n",
              static_cast<long long>(a.strobes_dropped));
  std::printf("heartbeat deliveries dropped ... %lld\n",
              static_cast<long long>(a.heartbeats_dropped));
  if (a.isolated != std::vector<int>{9}) {
    std::fprintf(stderr, "FAIL: expected exactly node 9 isolated (saw %zu "
                         "isolations)\n", a.isolated.size());
    return 1;
  }
  std::printf(
      "detection: node 5's single lost epoch was forgiven (a loaded NM acks\n"
      "late), but two in a row are indistinguishable from death: the MM\n"
      "isolated node 9 at t=%.3f s, evicted it and requeued its gang.\n",
      a.isolated_at_s);
  if (a.completed != 2) {
    std::fprintf(stderr, "FAIL: %d/2 jobs completed under strobe loss\n",
                 a.completed);
    return 1;
  }
  std::printf(
      "recovery: both gangs completed despite %lld lost strobes and a false\n"
      "positive — node 9 was healthy, yet its gang simply re-placed on the\n"
      "survivors; each strobe names the absolute Ousterhout row, so one\n"
      "lost timeslot switch is repaired by the next multicast.\n",
      static_cast<long long>(a.strobes_dropped));

  const bool deterministic = a.trace == b.trace &&
                             a.isolated == b.isolated &&
                             a.strobes_dropped == b.strobes_dropped &&
                             a.metrics.to_json() == b.metrics.to_json();
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: same-seed runs diverged\n");
    return 1;
  }
  std::printf(
      "determinism: two same-seed runs produced byte-identical structured\n"
      "traces (%zu records, %zu bytes).\n",
      a.trace.size() / fabric::kTraceRecordBytes, a.trace.size());

  // The fabric's metrics aggregator saw the same faults from the other
  // side: its per-class drop counter must agree with the rule's hits.
  const auto* strobe_drops = a.metrics.find_counter("fabric.strobe.dropped");
  if (strobe_drops == nullptr ||
      strobe_drops->value() != a.strobes_dropped) {
    std::fprintf(stderr, "FAIL: aggregator drop count disagrees with "
                         "the strobe-loss rule\n");
    return 1;
  }
  std::printf("\ntelemetry snapshot of run A (fabric aggregator + dæmons):\n\n");
  a.metrics.print();
  return 0;
}

int part3_recovery_walkthrough() {
  std::printf(
      "\n=== recovery lifecycle: crash -> kill -> requeue -> rejoin ===\n\n"
      "16 nodes, one 16-PE gang on nodes 0-3; node 2 dies at t=0.4 s and\n"
      "returns at t=1.4 s. Policy: kill-and-requeue (restart budget 3).\n\n");

  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(16);
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;
  core::Cluster cluster(sim, cfg);

  cluster.mm().set_failure_callback([&](int node, sim::SimTime when) {
    std::printf("[%8.3f s] heartbeat declares node %d dead; MM evicts it,\n"
                "             kills and requeues the gang spanning it\n",
                when.to_seconds(), node);
  });

  const core::JobId id = cluster.submit(
      {.name = "walk",
       .binary_size = 8_MB,
       .npes = 16,  // nodes 0-3
       .program = [](core::AppContext& ctx) -> sim::Task<> {
         co_await ctx.compute(1500_ms);
       }});

  // Narrate the job's state transitions as they happen.
  sim.spawn([](sim::Simulator& s, core::Cluster& cl,
               core::JobId job) -> sim::Task<> {
    std::string last;
    for (;;) {
      const core::Job& j = cl.job(job);
      const std::string st = core::to_string(j.state());
      if (st != last) {
        std::printf("[%8.3f s] job '%s' -> %-12s (nodes [%d,%d], "
                    "incarnation %d)\n",
                    s.now().to_seconds(), j.spec().name.c_str(), st.c_str(),
                    j.nodes().first, j.nodes().last(), j.incarnation());
        last = st;
        if (j.state() == core::JobState::Completed) co_return;
      }
      co_await s.delay(5_ms);
    }
  }(sim, cluster, id));

  sim.schedule_at(400_ms, [&] {
    std::printf("[%8.3f s] node 2 dies (gang 'walk' is running on it)\n",
                sim.now().to_seconds());
    cluster.crash_node(2);
  });
  sim.schedule_at(1400_ms, [&] {
    std::printf("[%8.3f s] node 2 comes back and re-registers\n",
                sim.now().to_seconds());
    cluster.recover_node(2);
  });

  cluster.run_until_all_complete(60_sec);
  sim.run(sim.now() + 200_ms);  // let the rejoin handshake settle

  const core::Job& j = cluster.job(id);
  if (j.state() != core::JobState::Completed || j.restarts() != 1) {
    std::fprintf(stderr, "FAIL: job state %s, restarts %d (want completed/1)\n",
                 core::to_string(j.state()).c_str(), j.restarts());
    return 1;
  }

  // The same story, told by the dæmons' telemetry.
  const telemetry::MetricsRegistry& m = cluster.metrics();
  auto counter = [&](const char* name) {
    const telemetry::Counter* c = m.find_counter(name);
    return c != nullptr ? c->value() : 0;
  };
  std::printf("\n  %-34s %8s\n", "recovery telemetry", "value");
  std::printf("  %.44s\n", "--------------------------------------------");
  const char* names[] = {"mm.recovery.kills", "mm.recovery.requeues",
                         "mm.recovery.evictions", "mm.recovery.rejoins",
                         "nm.kills", "ft.aborts"};
  for (const char* name : names) {
    std::printf("  %-34s %8lld\n", name,
                static_cast<long long>(counter(name)));
  }
  if (const telemetry::Histogram* h =
          m.find_histogram("mm.recovery.requeue_to_run_ns");
      h != nullptr && h->count() > 0) {
    std::printf("  %-34s %6.1f ms\n", "kill -> replacement running",
                h->mean() * 1e-6);
  }
  if (counter("mm.recovery.rejoins") != 1) {
    std::fprintf(stderr, "FAIL: node 2 never re-registered\n");
    return 1;
  }
  std::printf(
      "\nThe replacement incarnation never touched node 2: the eviction\n"
      "removed it from every buddy tree, and the rejoin handshake seeded\n"
      "its heartbeat word so the next detection round does not re-declare\n"
      "it dead.\n");
  return 0;
}

}  // namespace

int main() {
  if (int rc = part1_hardware_failures(); rc != 0) return rc;
  if (int rc = part2_injected_faults(); rc != 0) return rc;
  return part3_recovery_walkthrough();
}
