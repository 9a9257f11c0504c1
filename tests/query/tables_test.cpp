// capture() against cluster ground truth: every table a live cluster
// fills, and a snapshot's value semantics (a capture does not change
// when the simulation advances).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "query/snapshot.hpp"
#include "sim/simulator.hpp"
#include "storm/cluster.hpp"
#include "storm/machine_manager.hpp"
#include "telemetry/tracing.hpp"

namespace storm::query {
namespace {

using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;
using sim::SimTime;
using sim::Task;

core::AppProgram compute_program(SimTime work) {
  return [work](core::AppContext& ctx) -> Task<> {
    co_await ctx.compute(work);
  };
}

TEST(Tables, MetaMatchesConfig) {
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(16);
  cfg.storm.quantum = 10_ms;
  core::Cluster cluster(sim, cfg);
  const ClusterMeta m = capture(cluster).meta;
  EXPECT_EQ(m.nodes, 16);
  EXPECT_EQ(m.pls_per_node, cluster.pls_per_node());
  EXPECT_FALSE(m.plane_mode);
  EXPECT_EQ(m.scheduler, "gang");
  EXPECT_EQ(m.quantum_ns, (10_ms).raw_ns());
  EXPECT_EQ(m.seed, cfg.seed);
  EXPECT_EQ(m.mm_node, 0);
  EXPECT_FALSE(m.standby_active);
  EXPECT_EQ(m.queued, 0);
  EXPECT_EQ(m.completed, 0);
}

TEST(Tables, NodeTableCoversEveryNode) {
  sim::Simulator sim;
  core::Cluster cluster(sim, core::ClusterConfig::es40(8));
  const StateSnapshot t = capture(cluster);
  EXPECT_EQ(t.nodes.size(), 8u);
  int expect = 0;
  for (const NodeRow& n : t.nodes) {
    EXPECT_EQ(n.node, expect++);  // capture order: node id
    EXPECT_FALSE(n.failed);
    EXPECT_EQ(n.pl_busy, 0);
    EXPECT_EQ(n.matrix_cells, 0);
  }
}

TEST(Tables, JobLifecycleAndMatrixPlacement) {
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(8);
  cfg.storm.quantum = 10_ms;
  core::Cluster cluster(sim, cfg);
  const core::JobId id = cluster.submit({.name = "work",
                                         .binary_size = 1_MB,
                                         .npes = 16,  // 4 nodes
                                         .program = compute_program(1_sec)});
  sim.run(500_ms);  // mid-run: transferring done, job on CPUs

  const StateSnapshot t = capture(cluster);
  ASSERT_EQ(t.jobs.size(), 1u);
  const JobRow& jrow = t.jobs.front();
  EXPECT_EQ(jrow.id, id);
  EXPECT_EQ(jrow.name, "work");
  EXPECT_TRUE(occupies_resources(jrow.state));
  ASSERT_TRUE(jrow.placed);
  EXPECT_EQ(jrow.node_count, 4);
  // Job-recorded allocation and matrix placement agree.
  EXPECT_EQ(jrow.placement_row, jrow.row);
  EXPECT_EQ(jrow.placement_first, jrow.first_node);
  EXPECT_EQ(jrow.placement_count, jrow.node_count);
  // The matrix_slots table holds exactly the placement's cells.
  EXPECT_EQ(t.matrix_slots.size(), 4u);
  for (const MatrixSlotRow& s : t.matrix_slots) {
    EXPECT_EQ(s.job, id);
    EXPECT_EQ(s.row, jrow.placement_row);
    EXPECT_GE(s.node, jrow.placement_first);
    EXPECT_LT(s.node, jrow.placement_first + jrow.placement_count);
  }
  // Each node row counts its own cells.
  for (const NodeRow& n : t.nodes) {
    EXPECT_EQ(n.matrix_cells,
              std::ranges::count(t.matrix_slots, n.node, &MatrixSlotRow::node))
        << "node " << n.node;
  }

  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
  // A snapshot is a value: the mid-run capture still shows the running
  // job, and a new capture shows it completed.
  EXPECT_TRUE(occupies_resources(t.jobs.front().state));
  EXPECT_EQ(t.meta.completed, 0);
  const StateSnapshot after = capture(cluster);
  ASSERT_EQ(after.jobs.size(), 1u);
  const JobRow& done = after.jobs.front();
  EXPECT_EQ(done.state, core::JobState::Completed);
  EXPECT_FALSE(done.placed);
  EXPECT_TRUE(after.matrix_slots.empty());
  EXPECT_GT(done.finished_ns, done.started_ns);
  EXPECT_EQ(after.meta.completed, 1);
}

TEST(Tables, CrashedNodeShowsAllFlags) {
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(16);
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;
  core::Cluster cluster(sim, cfg);
  sim.run(200_ms);
  cluster.crash_node(9);
  sim.run(1_sec);  // heartbeat slack passes; MM declares the death

  const StateSnapshot t = capture(cluster);
  ASSERT_EQ(t.nodes.size(), 16u);
  const NodeRow& nine = t.nodes[9];
  EXPECT_EQ(nine.node, 9);
  EXPECT_TRUE(nine.failed);     // plane ground truth
  EXPECT_TRUE(nine.crashed);    // crash model
  EXPECT_TRUE(nine.mm_failed);  // declared by the MM
  EXPECT_TRUE(nine.evicted);    // removed from the buddy trees
  EXPECT_EQ(nine.pl_busy, 0);
  EXPECT_EQ(std::ranges::count(t.nodes, true, &NodeRow::failed), 1);
}

TEST(Tables, IncarnationsTrackRequeues) {
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(16);
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;
  core::Cluster cluster(sim, cfg);
  const core::JobId id = cluster.submit({.name = "victim",
                                         .binary_size = 1_MB,
                                         .npes = 32,  // 8 nodes: 0-7
                                         .program = compute_program(2_sec)});
  sim.run(500_ms);
  ASSERT_TRUE(cluster.job(id).state() == core::JobState::Running);
  // Crash inside the allocation, but never the MM's own node.
  const net::NodeRange alloc = cluster.job(id).nodes();
  const int victim = alloc.contains(0) ? alloc.last() : alloc.first;
  cluster.crash_node(victim);
  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));

  const StateSnapshot t = capture(cluster);
  ASSERT_EQ(t.jobs.size(), 1u);
  EXPECT_EQ(t.jobs[0].restarts, 1);
  EXPECT_EQ(t.jobs[0].incarnation, 1);
  // One row per incarnation; only the last is current, none live
  // (the job is terminal).
  EXPECT_EQ(t.incarnations.size(), 2u);
  for (const IncarnationRow& i : t.incarnations) {
    EXPECT_EQ(i.job, id);
    EXPECT_EQ(i.current, i.inc == 1);
    EXPECT_FALSE(i.live);
    EXPECT_EQ(i.trace, telemetry::job_trace_id(static_cast<int>(i.job),
                                               i.inc));
  }
}

TEST(Tables, MetricsAndSpansTables) {
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(8);
  core::Cluster cluster(sim, cfg);
  cluster.enable_fabric_metrics();
  cluster.enable_tracing();
  cluster.submit({.name = "noop", .binary_size = 1_MB, .npes = 8});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));

  const StateSnapshot t = capture(cluster);
  EXPECT_FALSE(t.metrics.empty());
  // Registry order: name-sorted within each kind; all kinds typed.
  for (const MetricRow& m : t.metrics) {
    EXPECT_TRUE(m.kind == "counter" || m.kind == "gauge" ||
                m.kind == "histogram")
        << m.name;
  }
  EXPECT_TRUE(std::ranges::any_of(t.metrics, [](const MetricRow& m) {
    return m.kind == "counter" && m.name == "fabric.launch.wire_ops" &&
           m.count > 0;
  }));
  EXPECT_FALSE(t.spans.empty());
  // Spans come in buffer (id) order; closed spans have an end.
  for (const SpanRow& s : t.spans) {
    if (!s.open()) {
      EXPECT_GE(s.t_end_ns, s.t_start_ns);
    }
  }
}

TEST(Tables, SpansEmptyWithoutTracer) {
  sim::Simulator sim;
  core::Cluster cluster(sim, core::ClusterConfig::es40(4));
  EXPECT_TRUE(capture(cluster).spans.empty());
}

}  // namespace
}  // namespace storm::query
