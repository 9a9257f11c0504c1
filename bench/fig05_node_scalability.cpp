// Figure 5: node scalability of the gang scheduler — total runtime /
// MPL for 1-64 nodes, MPL 1 and 2, SWEEP3D and synthetic computation.
//
// Paper anchor: "there is no increase in runtime or overhead with the
// increase in the number of nodes beyond that caused by the
// job-launch." (50 ms quantum.)
#include <algorithm>

#include "apps/sweep3d.hpp"
#include "apps/synthetic.hpp"
#include "bench/common.hpp"
#include "bench/harness.hpp"
#include "bench/runner.hpp"
#include "storm/cluster.hpp"

namespace {

using namespace storm;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

double run_jobs(const bench::Harness& h, bench::Point& point, int nodes,
                int njobs, core::AppProgram program) {
  sim::Simulator sim(0xF16'05ULL);
  core::ClusterConfig cfg = core::ClusterConfig::es40(nodes);
  cfg.app_cpus_per_node = 2;
  cfg.storm.quantum = 50_ms;  // the paper's pick after Figure 4
  cfg.storm.max_mpl = 2;
  core::Cluster cluster(sim, cfg);
  h.attach(cluster);
  std::vector<core::JobId> ids;
  for (int j = 0; j < njobs; ++j) {
    ids.push_back(cluster.submit({.name = "app" + std::to_string(j),
                                  .binary_size = 4_MB,
                                  .npes = nodes * 2,
                                  .program = program}));
  }
  const bool done = cluster.run_until_all_complete(3600_sec);
  h.capture(cluster, point);
  if (!done) return -1.0;
  // Application-level timing, as the paper's self-timing benchmarks
  // report it (free of MM boundary rounding).
  sim::SimTime first_start = sim::SimTime::max();
  sim::SimTime last_exit = sim::SimTime::zero();
  for (auto id : ids) {
    first_start =
        std::min(first_start, cluster.job(id).times().first_proc_started);
    last_exit = std::max(last_exit, cluster.job(id).times().last_proc_exited);
  }
  return (last_exit - first_start).to_seconds() /
         static_cast<double>(njobs);
}

// Opt-in `--scale-nodes N` point: one moderately sized job on an
// N-node cluster — STORM's target shape, where most nodes are idle
// control-plane participants. This is the configuration the batched
// periodic sweeps (DESIGN §2.3) accelerate, and the one the CI
// full-sim throughput floor (--min-node-events-per-s +
// BENCH_fullsim.json) is measured on. Flag-gated so the default
// stdout stays byte-identical to the goldens.
void run_scale_point(bench::Harness& h, int nodes, sim::SimTime work) {
  sim::Simulator sim(0xF16'05ULL);
  core::ClusterConfig cfg = core::ClusterConfig::es40(nodes);
  cfg.app_cpus_per_node = 2;
  cfg.storm.quantum = 50_ms;
  cfg.storm.max_mpl = 2;
  core::Cluster cluster(sim, cfg);
  h.attach(cluster);
  const int npes = 2 * std::min(nodes, 128);
  cluster.submit({.name = "scale",
                  .binary_size = 4_MB,
                  .npes = npes,
                  .program = apps::synthetic_computation(work)});
  const bool done = cluster.run_until_all_complete(3600_sec);
  h.capture(cluster);
  std::printf("scale point: %d nodes, %d PEs, %llu engine events%s\n", nodes,
              npes, static_cast<unsigned long long>(sim.events_executed()),
              done ? "" : " (TIMED OUT)");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(
      argc, argv, "fig05",
      {bench::kJobsFlag, {"--scale-nodes", bench::Flag::Arg::Count}});
  const bool fast = h.fast();

  apps::Sweep3DParams sweep;
  // Compute budget chosen so the end-to-end runtime including the
  // boundary exchanges lands on the paper's ~49 s (see fig04).
  sweep.target_runtime = fast ? 5_sec : 44_sec;
  const sim::SimTime synth_work = fast ? 5_sec : 25_sec;

  bench::banner("Figure 5 — node scalability (1-64 nodes, MPL 1 and 2)",
                "total runtime / MPL vs nodes; anchor: flat curves — no "
                "overhead growth beyond the launch");

  bench::Table t({"nodes", "sweep_mpl1", "sweep_mpl2", "synth_mpl1",
                  "synth_mpl2"});
  t.print_header();
  // One sweep point per node count, evaluated on the --jobs pool and
  // committed in order (bench/harness.hpp).
  const int node_counts[] = {1, 2, 4, 8, 16, 32, 64};
  struct Row {
    double s1, s2, c1, c2;
    bench::Point point;
  };
  const bench::SweepRunner runner(h.jobs());
  runner.run(
      std::size(node_counts),
      [&](std::size_t ni) {
        const int nodes = node_counts[ni];
        Row row;
        row.s1 = run_jobs(h, row.point, nodes, 1, apps::sweep3d(sweep));
        row.s2 = run_jobs(h, row.point, nodes, 2, apps::sweep3d(sweep));
        row.c1 = run_jobs(h, row.point, nodes, 1,
                          apps::synthetic_computation(synth_work));
        row.c2 = run_jobs(h, row.point, nodes, 2,
                          apps::synthetic_computation(synth_work));
        return row;
      },
      [&](std::size_t ni, Row& row) {
        h.commit(std::move(row.point));
        t.cell(node_counts[ni]);
        t.cell(row.s1, 2);
        t.cell(row.s2, 2);
        t.cell(row.c1, 2);
        t.cell(row.c2, 2);
        t.end_row();
      });
  std::printf("\n(seconds; weak scaling: 2 PEs per node)\n");
  if (const double scale_nodes = h.number("--scale-nodes"); scale_nodes > 0) {
    run_scale_point(h, static_cast<int>(scale_nodes), fast ? 5_sec : 25_sec);
  }
  return h.finish();
}
