// Figure 4: effect of the time quantum on total runtime / MPL,
// 32 nodes / 64 PEs, quanta from 300 us to 8 s.
//
// Paper anchors: the scheduler handles quanta down to ~300 us; at 2 ms
// there is virtually no degradation over a single instance (the curve
// is flat, "(2ms, 49s)"), and runtimes grow by less than ~1 s out of
// ~50 towards 8 s quanta (launch/termination events only happen at
// timeslice boundaries).
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

double run_jobs(const bench::Harness& h, bench::Point& point,
                sim::SimTime quantum, int njobs, core::AppProgram program,
                sim::SimTime limit) {
  sim::Simulator sim(0xF16'04ULL);
  core::ClusterConfig cfg = core::ClusterConfig::es40(32);
  cfg.app_cpus_per_node = 2;  // 32 nodes / 64 PEs, as in the paper
  cfg.storm.quantum = quantum;
  cfg.storm.max_mpl = 2;
  core::Cluster cluster(sim, cfg);
  h.attach(cluster);
  std::vector<core::JobId> ids;
  for (int j = 0; j < njobs; ++j) {
    ids.push_back(cluster.submit(
        {.name = "app" + std::to_string(j),
         .binary_size = 4_MB,
         .npes = 64,
         .program = program}));
  }
  const bool done = cluster.run_until_all_complete(limit);
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

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "fig04", {bench::kJobsFlag});
  const bool fast = h.fast();

  apps::Sweep3DParams sweep;
  // Compute budget chosen so the end-to-end runtime including the
  // boundary exchanges lands on the paper's ~49 s annotation.
  sweep.target_runtime = fast ? 5_sec : 44_sec;
  const sim::SimTime synth_work = fast ? 5_sec : 49_sec;
  const sim::SimTime limit = 3600_sec;

  bench::banner("Figure 4 — effect of the time quantum (32 nodes / 64 PEs)",
                "total runtime / MPL vs quantum; anchors: usable from "
                "~300 us, flat from 2 ms ('(2ms, 49s)')");

  bench::Table t({"quantum_ms", "sweep_mpl1", "sweep_mpl2", "synth_mpl2"});
  t.print_header();

  const double quanta_ms[] = {0.3, 0.5, 1, 2, 5, 10, 20, 50,
                              100, 300, 1000, 2000, 8000};
  // One sweep point per quantum: the three runs inside a point stay
  // serial, points evaluate on the --jobs pool, and rows commit in
  // quantum order (bench/harness.hpp).
  struct Row {
    double s1, s2, c2;
    bench::Point point;
  };
  const bench::SweepRunner runner(h.jobs());
  runner.run(
      std::size(quanta_ms),
      [&](std::size_t qi) {
        const auto q = sim::SimTime::millis(quanta_ms[qi]);
        Row row;
        row.s1 = run_jobs(h, row.point, q, 1, apps::sweep3d(sweep), limit);
        row.s2 = run_jobs(h, row.point, q, 2, apps::sweep3d(sweep), limit);
        row.c2 = run_jobs(h, row.point, q, 2,
                          apps::synthetic_computation(synth_work), limit);
        return row;
      },
      [&](std::size_t qi, Row& row) {
        h.commit(std::move(row.point));
        t.cell(quanta_ms[qi], 1);
        t.cell(row.s1, 2);
        t.cell(row.s2, 2);
        t.cell(row.c2, 2);
        t.end_row();
      });
  std::printf(
      "\n(seconds; runtime/MPL flat across three decades of quantum is the"
      " paper's headline scheduling result)\n");
  return h.finish();
}
