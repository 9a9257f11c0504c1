// Figure 3: send and execute times for a 12 MB file under unloaded,
// CPU-loaded and network-loaded conditions, 1-256 processors.
//
// Paper anchor: "even in the worst-case scenario, with a
// network-loaded system, it still takes only 1.5 seconds to launch a
// 12 MB file on 256 processors."
#include "bench/common.hpp"
#include "bench/harness.hpp"
#include "sim/stats.hpp"
#include "storm/buddy_allocator.hpp"
#include "storm/cluster.hpp"

namespace {

using namespace storm;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

enum class Load { None, Cpu, Network };

struct Cell {
  double send_ms;
  double exec_ms;
};

Cell measure(bench::Harness& h, int processors, Load load, int repetitions) {
  sim::Series send, exec;
  for (int rep = 0; rep < repetitions; ++rep) {
    sim::Simulator sim(0xF16'03ULL + rep * 104729);
    const int nodes =
        core::BuddyAllocator::round_up_pow2((processors + 3) / 4);
    core::ClusterConfig cfg = core::ClusterConfig::es40(nodes);
    cfg.storm.quantum = 1_ms;
    core::Cluster cluster(sim, cfg);
    h.attach(cluster);
    if (load == Load::Cpu) cluster.start_cpu_load();
    if (load == Load::Network) cluster.start_network_load();
    const auto id = cluster.submit(
        {.name = "noop", .binary_size = 12_MB, .npes = processors});
    const bool done = cluster.run_until_all_complete(3600_sec);
    h.capture(cluster);
    if (!done) continue;
    send.add(cluster.job(id).times().send_time().to_millis());
    exec.add(cluster.job(id).times().execute_time().to_millis());
  }
  return {send.mean(), exec.mean()};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "fig03");
  const int reps = h.fast() ? 1 : 3;

  bench::banner("Figure 3 — 12 MB launch under load",
                "send/execute vs processors, {unloaded, CPU-loaded, "
                "network-loaded}; anchor: <= ~1.5 s worst case at 256 PEs");

  bench::Table t({"PEs", "sendU", "execU", "sendC", "execC", "sendN",
                  "execN", "totalN"});
  t.print_header();
  for (int pes : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    const Cell u = measure(h, pes, Load::None, reps);
    const Cell c = measure(h, pes, Load::Cpu, reps);
    const Cell n = measure(h, pes, Load::Network, reps);
    t.cell(pes);
    t.cell(u.send_ms);
    t.cell(u.exec_ms);
    t.cell(c.send_ms);
    t.cell(c.exec_ms);
    t.cell(n.send_ms);
    t.cell(n.exec_ms);
    t.cell(n.send_ms + n.exec_ms);
    t.end_row();
  }
  std::printf("\n(ms; U = unloaded, C = CPU-loaded, N = network-loaded)\n");
  return h.finish();
}
