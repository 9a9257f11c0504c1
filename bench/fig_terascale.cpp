// Terascale extrapolation: STORM's launch-time and feasible-quantum
// curves out to 64k nodes.
//
// The paper measures 64 nodes and argues (Section 5) that every
// management mechanism is O(1) or O(log N) in machine size. This
// harness runs the *same* MM — real Ousterhout matrix, buddy
// allocator, file-transfer pipeline, QsNET latency/bandwidth model —
// over the plane-mode cluster (ClusterConfig::plane_mode), where the
// per-node NM/PL microcosm is replaced by its aggregate effect on the
// node-state plane. That drops per-node memory from an OS-scheduler
// object to a handful of plane words, which is what lets one process
// sweep 1k → 64k nodes.
//
// stdout carries the deterministic tables (launch curve, quantum
// curve). Beyond the flags every harness takes (bench/harness.hpp),
// `--max-rss-mb N` and `--max-wall-s N` fail the run (exit 1) over
// budget; `--bench-json` records every curve point and the feasible
// quantum as storm.bench.v1 "values". `--fast` stops at 4k nodes (CI
// smoke); the full sweep reaches 64k.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bench/harness.hpp"
#include "storm/cluster.hpp"

namespace {

using namespace storm;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

core::ClusterConfig terascale_config(int nodes) {
  core::ClusterConfig cfg = core::ClusterConfig::es40(nodes);
  cfg.plane_mode = true;
  cfg.storm.quantum = 1_ms;  // the paper's launch-benchmark timeslice
  return cfg;
}

struct LaunchPoint {
  int nodes;
  double send_ms;
  double execute_ms;
  double launch_ms;
};

LaunchPoint launch_curve_point(bench::Harness& h, int nodes) {
  sim::Simulator sim;
  core::Cluster cluster(sim, terascale_config(nodes));
  h.attach(cluster);
  const core::JobId id =
      cluster.submit({.name = "noop",
                      .binary_size = 12_MB,
                      .npes = nodes * cluster.config().app_cpus_per_node});
  const bool done = cluster.run_until_all_complete(600_sec);
  h.capture(cluster);
  const auto& t = cluster.job(id).times();
  return LaunchPoint{nodes, done ? t.send_time().to_millis() : -1.0,
                     done ? t.execute_time().to_millis() : -1.0,
                     done ? t.launch_time().to_millis() : -1.0};
}

struct QuantumPoint {
  double quantum_ms;
  double runtime_s;
  double slowdown_pct;
};

QuantumPoint quantum_point(bench::Harness& h, int nodes, sim::SimTime quantum,
                           sim::SimTime work) {
  sim::Simulator sim;
  core::ClusterConfig cfg = terascale_config(nodes);
  cfg.storm.quantum = quantum;
  cfg.storm.max_mpl = 2;
  core::Cluster cluster(sim, cfg);
  h.attach(cluster);
  std::vector<core::JobId> ids;
  for (int j = 0; j < 2; ++j) {
    ids.push_back(
        cluster.submit({.name = "synth",
                        .binary_size = 1_MB,
                        .npes = nodes * cfg.app_cpus_per_node,
                        .plane_work = work}));
  }
  const bool done = cluster.run_until_all_complete(3600_sec);
  h.capture(cluster);
  if (!done) return QuantumPoint{quantum.to_millis(), -1.0, -1.0};
  sim::SimTime first = sim::SimTime::max(), last = sim::SimTime::zero();
  for (const auto id : ids) {
    first = std::min(first, cluster.job(id).times().first_proc_started);
    last = std::max(last, cluster.job(id).times().last_proc_exited);
  }
  const double normalized = (last - first).to_seconds() / 2.0;
  const double slowdown =
      (normalized - work.to_seconds()) / work.to_seconds() * 100.0;
  return QuantumPoint{quantum.to_millis(), normalized, slowdown};
}

}  // namespace

int main(int argc, char** argv) {
  using bench::Flag;
  bench::Harness h(argc, argv, "fig_terascale",
                   {{"--max-rss-mb", Flag::Arg::Number},
                    {"--max-wall-s", Flag::Arg::Number}});
  const bool fast = h.fast();

  bench::banner(
      "Terascale — launch time and feasible quantum to 64k nodes",
      "Section 5's scalability argument, extrapolated on the plane-mode "
      "cluster");

  // --- launch curve ------------------------------------------------------
  std::vector<int> node_counts = fast
      ? std::vector<int>{1024, 2048, 4096}
      : std::vector<int>{1024, 2048, 4096, 8192, 16384, 32768, 65536};
  std::printf("Launch of a do-nothing 12 MB binary (4 PEs/node):\n\n");
  bench::Table lt({"nodes", "send_ms", "execute_ms", "launch_ms"});
  lt.print_header();
  int rc = 0;
  for (const int n : node_counts) {
    const LaunchPoint p = launch_curve_point(h, n);
    const std::string key = "launch." + std::to_string(n) + ".";
    h.value(key + "send_ms", p.send_ms);
    h.value(key + "execute_ms", p.execute_ms);
    h.value(key + "launch_ms", p.launch_ms);
    if (p.launch_ms < 0) {
      std::fprintf(stderr, "terascale: FAIL launch at %d nodes timed out\n",
                   n);
      rc = 1;
    }
    lt.cell(p.nodes);
    lt.cell(p.send_ms, 1);
    lt.cell(p.execute_ms, 1);
    lt.cell(p.launch_ms, 1);
    lt.end_row();
  }
  std::printf(
      "\n(hardware multicast + buddy-aligned ranges keep the growth "
      "logarithmic in nodes)\n");

  // --- feasible-quantum curve -------------------------------------------
  const int fq_nodes = node_counts.back();
  const sim::SimTime work = fast ? 1_sec : 5_sec;
  std::printf(
      "\nFeasible quantum at %d nodes (two MPL-2 gangs, %.0f s work/PE):\n\n",
      fq_nodes, work.to_seconds());
  bench::Table qt({"quantum_ms", "runtime_s", "slowdown_%"});
  qt.print_header();
  const double quanta_ms[] = {0.5, 1.0, 2.0, 5.0, 10.0, 50.0};
  h.value("quantum.nodes", fq_nodes);
  double feasible_ms = -1;
  for (const double q : quanta_ms) {
    const QuantumPoint p =
        quantum_point(h, fq_nodes, sim::SimTime::millis(q), work);
    char key[32];
    std::snprintf(key, sizeof key, "quantum.%g.", q);
    h.value(std::string(key) + "runtime_s", p.runtime_s);
    h.value(std::string(key) + "slowdown_pct", p.slowdown_pct);
    if (feasible_ms < 0 && p.slowdown_pct >= 0 && p.slowdown_pct <= 2.0) {
      feasible_ms = p.quantum_ms;
    }
    qt.cell(p.quantum_ms, 1);
    qt.cell(p.runtime_s, 3);
    qt.cell(p.slowdown_pct, 2);
    qt.end_row();
  }
  std::printf("\nfeasible quantum (slowdown <= 2%%) at %d nodes: %.1f ms\n",
              fq_nodes, feasible_ms);

  h.value("feasible_quantum_ms", feasible_ms);
  if (feasible_ms < 0) {
    std::fprintf(stderr, "terascale: FAIL no feasible quantum found\n");
    rc = 1;
  }
  return h.finish() | rc;
}
