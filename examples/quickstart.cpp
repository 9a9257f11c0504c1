// Quickstart: build the paper's 64-node ES40/QsNET cluster, launch a
// 12 MB job on all 256 processors, and print the launch breakdown —
// the experiment behind the paper's headline "110 ms" number.
//
//   $ ./examples/quickstart            # the headline experiment
//   $ ./examples/quickstart --trace    # plus the launch critical path
#include <cstdio>
#include <cstring>

#include "storm/cluster.hpp"
#include "telemetry/tracing.hpp"

using namespace storm;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

int main(int argc, char** argv) {
  const bool trace = argc > 1 && std::strcmp(argv[1], "--trace") == 0;
  sim::Simulator sim;

  // The paper's testbed: 64 AlphaServer ES40 nodes (4 CPUs each),
  // QsNET fabric, 1 ms management timeslice for launch experiments.
  core::ClusterConfig cfg = core::ClusterConfig::es40(64);
  cfg.storm.quantum = 1_ms;
  core::Cluster cluster(sim, cfg);
  if (trace) cluster.enable_tracing();

  std::printf("cluster: %d nodes x %d CPUs, QsNET cable %.0f m\n",
              cfg.nodes, cfg.cpus_per_node, cluster.network().cable_length_m());

  // A do-nothing 12 MB binary on every processor.
  const core::JobId id = cluster.submit({
      .name = "hello",
      .binary_size = 12_MB,
      .npes = 256,
  });

  if (!cluster.run_until_all_complete(60_sec)) {
    std::fprintf(stderr, "job did not complete\n");
    return 1;
  }

  const auto& t = cluster.job(id).times();
  std::printf("\njob '%s' (%d PEs, 12 MB binary)\n",
              cluster.job(id).spec().name.c_str(), 256);
  std::printf("  transfer (read+broadcast+write): %8.2f ms\n",
              t.send_time().to_millis());
  std::printf("  execute (fork..exit observed):   %8.2f ms\n",
              t.execute_time().to_millis());
  std::printf("  total launch:                    %8.2f ms\n",
              t.launch_time().to_millis());
  std::printf("\n(paper, Section 3.1.1: ~96 ms transfer, ~110 ms total)\n");

  if (trace) {
    // Where the launch spent its time: the causal spans of the job's
    // first incarnation, walked back along the critical path.
    std::printf("\nlaunch critical path:\n%s",
                telemetry::format_critical_path(telemetry::analyze_launch(
                    cluster.tracer()->buffer(),
                    telemetry::job_trace_id(id, 0)))
                    .c_str());
  }

  std::printf("\nfabric traffic: %.1f MB broadcast, %.1f KB point-to-point\n",
              cluster.network().bytes_broadcast() / 1e6,
              cluster.network().bytes_put() / 1e3);
  return 0;
}
