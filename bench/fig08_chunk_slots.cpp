// Figure 8: 12 MB send time on 64 nodes as a function of the
// file-transfer chunk size (32 KB - 1 MB) and receive-queue slot count
// (2, 4, 8, 16).
//
// Paper anchors: the protocol is almost insensitive to the slot count;
// the best configuration is 4 slots of 512 KB (~92-96 ms); more slots
// do not help because the larger footprint generates NIC-TLB misses;
// small chunks pay per-chunk overheads.
#include "bench/common.hpp"
#include "bench/harness.hpp"
#include "storm/cluster.hpp"

namespace {

using namespace storm;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

double send_time_ms(bench::Harness& h, sim::Bytes chunk, int slots) {
  sim::Simulator sim(0xF16'08ULL);
  core::ClusterConfig cfg = core::ClusterConfig::es40(64);
  cfg.storm.quantum = 1_ms;
  cfg.storm.chunk_size = chunk;
  cfg.storm.slots = slots;
  core::Cluster cluster(sim, cfg);
  h.attach(cluster);
  const auto id =
      cluster.submit({.name = "noop", .binary_size = 12_MB, .npes = 256});
  const bool done = cluster.run_until_all_complete(600_sec);
  h.capture(cluster);
  if (!done) return -1.0;
  return cluster.job(id).times().send_time().to_millis();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "fig08");
  bench::banner("Figure 8 — send time vs chunk size and slot count",
                "12 MB on 64 nodes; paper optimum: 4 slots x 512 KB "
                "(~92-96 ms), almost slot-insensitive, TLB penalty at "
                "large footprints");

  bench::Table t({"chunk_KB", "2slots", "4slots", "8slots", "16slots"});
  t.print_header();
  for (int kb : {32, 64, 128, 256, 512, 1024}) {
    t.cell(kb);
    for (int slots : {2, 4, 8, 16}) {
      t.cell(send_time_ms(h, static_cast<sim::Bytes>(kb) * 1024, slots));
    }
    t.end_row();
  }
  std::printf("\n(ms)\n");
  return h.finish();
}
