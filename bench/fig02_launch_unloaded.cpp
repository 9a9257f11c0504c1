// Figure 2: send and execute times for a 4 MB, 8 MB, and 12 MB file
// on an unloaded system, 1-256 processors.
//
// Paper reference points (Section 3.1.1): 12 MB on the largest
// configuration launches in ~110 ms, of which ~96 ms is transfer
// (protocol bandwidth ~131 MB/s); send grows slowly with node count,
// execute grows with node count through OS skew and is independent of
// binary size.
#include "bench/common.hpp"
#include "bench/harness.hpp"
#include "sim/stats.hpp"
#include "storm/buddy_allocator.hpp"
#include "storm/cluster.hpp"

namespace {

using namespace storm;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

struct Cell {
  double send_ms;
  double exec_ms;
};

Cell measure(bench::Harness& h, int processors, sim::Bytes binary,
             int repetitions) {
  sim::Series send, exec;
  for (int rep = 0; rep < repetitions; ++rep) {
    sim::Simulator sim(0xF16'02ULL + rep * 7919);
    const int nodes = core::BuddyAllocator::round_up_pow2(
        (processors + 3) / 4);
    core::ClusterConfig cfg = core::ClusterConfig::es40(nodes);
    cfg.storm.quantum = 1_ms;  // the paper's launch-experiment setting
    core::Cluster cluster(sim, cfg);
    h.attach(cluster);
    const auto id = cluster.submit(
        {.name = "noop", .binary_size = binary, .npes = processors});
    const bool done = cluster.run_until_all_complete(600_sec);
    h.capture(cluster);
    if (!done) continue;
    send.add(cluster.job(id).times().send_time().to_millis());
    exec.add(cluster.job(id).times().execute_time().to_millis());
  }
  return {send.mean(), exec.mean()};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "fig02");
  const int reps = h.fast() ? 1 : 3;

  bench::banner("Figure 2 — job launch times, unloaded system",
                "send/execute vs processors for 4/8/12 MB binaries; "
                "anchor: 12 MB on 256 PEs ~ 96 ms send + ~14 ms execute");

  bench::Table t({"PEs", "send4MB", "exec4MB", "send8MB", "exec8MB",
                  "send12MB", "exec12MB", "total12MB"});
  t.print_header();
  // The 12 MB / 256-PE anchor configuration is measured last, so its
  // run is the one a `--trace` export shows.
  for (int pes : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    const Cell c4 = measure(h, pes, 4_MB, reps);
    const Cell c8 = measure(h, pes, 8_MB, reps);
    const Cell c12 = measure(h, pes, 12_MB, reps);
    t.cell(pes);
    t.cell(c4.send_ms);
    t.cell(c4.exec_ms);
    t.cell(c8.send_ms);
    t.cell(c8.exec_ms);
    t.cell(c12.send_ms);
    t.cell(c12.exec_ms);
    t.cell(c12.send_ms + c12.exec_ms);
    t.end_row();
  }
  std::printf(
      "\n(all times in ms; paper: sends proportional to size, nearly flat in"
      " PEs;\n execute grows with PEs via OS skew, independent of size)\n");
  return h.finish();
}
