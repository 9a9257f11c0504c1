// Canned operator views: every view renders from a live capture,
// renders *identically* from its storm.state.v1 round trip (the
// statectl contract), and the spans --job filter works.
#include <gtest/gtest.h>

#include <string>

#include "query/snapshot.hpp"
#include "query/views.hpp"
#include "sim/simulator.hpp"
#include "storm/cluster.hpp"
#include "telemetry/timeseries.hpp"

namespace storm::query {
namespace {

using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

TEST(Views, NamesAreStable) {
  const std::vector<std::string> expect{
      "summary", "nodes",   "queue", "matrix", "failures",
      "replication", "spans", "metrics", "top",    "watch"};
  EXPECT_EQ(view_names(), expect);
}

TEST(Views, UnknownViewSetsError) {
  const StateSnapshot t;
  std::string err;
  const std::string out = render_view("bogus", t, ViewOptions{}, &err);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(err.empty());
  EXPECT_NE(err.find("bogus"), std::string::npos);
}

TEST(Views, EveryViewRendersLiveAndFromSnapshotIdentically) {
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(16);
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;
  core::Cluster cluster(sim, cfg);
  cluster.enable_fabric_metrics();
  cluster.enable_tracing();
  cluster.submit({.name = "first", .binary_size = 1_MB, .npes = 16});
  cluster.submit({.name = "second", .binary_size = 2_MB, .npes = 32});
  sim.run(200_ms);
  cluster.crash_node(12);  // give `failures` something to show
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));

  const StateSnapshot live = capture(cluster);
  StateSnapshot from_file;
  std::string err;
  ASSERT_TRUE(from_json(to_json(live), from_file, &err)) << err;

  for (const std::string& name : view_names()) {
    std::string live_err, file_err;
    const std::string a = render_view(name, live, ViewOptions{}, &live_err);
    const std::string b =
        render_view(name, from_file, ViewOptions{}, &file_err);
    EXPECT_TRUE(live_err.empty()) << name << ": " << live_err;
    EXPECT_TRUE(file_err.empty()) << name << ": " << file_err;
    EXPECT_FALSE(a.empty()) << name;
    EXPECT_EQ(a.back(), '\n') << name;
    // The statectl contract: a view cannot tell a live cluster from a
    // parsed storm.state.v1 file.
    EXPECT_EQ(a, b) << name;
  }
}

TEST(Views, SummaryAndQueueShowTheRun) {
  sim::Simulator sim;
  core::Cluster cluster(sim, core::ClusterConfig::es40(8));
  cluster.submit({.name = "payload", .binary_size = 1_MB, .npes = 16});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
  const StateSnapshot t = capture(cluster);
  std::string err;

  const std::string summary = render_view("summary", t, ViewOptions{}, &err);
  EXPECT_NE(summary.find("8 nodes"), std::string::npos) << summary;
  EXPECT_NE(summary.find("gang"), std::string::npos) << summary;

  const std::string queue = render_view("queue", t, ViewOptions{}, &err);
  EXPECT_NE(queue.find("payload"), std::string::npos) << queue;
  EXPECT_NE(queue.find("completed"), std::string::npos) << queue;
}

TEST(Views, SummaryShowsPeriodicLineOnlyWhenBatchingRan) {
  // Without heartbeats (and no coalesced timers) the batched-periodic
  // counters never register, and the summary must not change.
  {
    sim::Simulator sim;
    core::Cluster cluster(sim, core::ClusterConfig::es40(8));
    sim.run(100_ms);
    std::string err;
    const std::string summary =
        render_view("summary", capture(cluster), ViewOptions{}, &err);
    EXPECT_EQ(summary.find("periodic:"), std::string::npos) << summary;
  }
  // A heartbeat cluster sweeps and absorbs; the line appears.
  {
    sim::Simulator sim;
    core::ClusterConfig cfg = core::ClusterConfig::es40(8);
    cfg.storm.quantum = 10_ms;
    cfg.storm.heartbeat_enabled = true;
    cfg.storm.heartbeat_period_quanta = 5;
    core::Cluster cluster(sim, cfg);
    sim.run(1_sec);
    std::string err;
    const std::string summary =
        render_view("summary", capture(cluster), ViewOptions{}, &err);
    EXPECT_NE(summary.find("periodic:"), std::string::npos) << summary;
    EXPECT_NE(summary.find("mm sweep(s)"), std::string::npos) << summary;
    EXPECT_NE(summary.find("absorbed"), std::string::npos) << summary;
  }
}

TEST(Views, NodesViewCollapsesUniformRuns) {
  sim::Simulator sim;
  core::Cluster cluster(sim, core::ClusterConfig::es40(64));
  const StateSnapshot t = capture(cluster);
  std::string err;
  const std::string out = render_view("nodes", t, ViewOptions{}, &err);
  // 64 identical idle nodes → one sinfo-style collapsed line.
  EXPECT_NE(out.find("0-63"), std::string::npos) << out;
  EXPECT_NE(out.find("up"), std::string::npos) << out;
}

TEST(Views, FailuresViewShowsCrashAndRestart) {
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(16);
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;
  core::Cluster cluster(sim, cfg);
  const core::JobId id = cluster.submit(
      {.name = "victim", .binary_size = 1_MB, .npes = 32,
       .program = [](core::AppContext& ctx) -> sim::Task<> {
         co_await ctx.compute(2_sec);
       }});
  sim.run(500_ms);
  // Crash inside the allocation, but never the MM's own node.
  const net::NodeRange alloc = cluster.job(id).nodes();
  const int victim = alloc.contains(0) ? alloc.last() : alloc.first;
  cluster.crash_node(victim);
  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));

  const StateSnapshot t = capture(cluster);
  std::string err;
  const std::string out = render_view("failures", t, ViewOptions{}, &err);
  EXPECT_NE(out.find(std::to_string(victim)), std::string::npos) << out;
  EXPECT_NE(out.find("victim"), std::string::npos) << out;
}

TEST(Views, ReplicationViewShowsRolesOrDisabledLine) {
  // Replication off: a fixed line, identical live and from a snapshot
  // (which omits the table entirely).
  {
    sim::Simulator sim;
    core::Cluster cluster(sim, core::ClusterConfig::es40(8));
    std::string err;
    const std::string out =
        render_view("replication", capture(cluster), ViewOptions{}, &err);
    EXPECT_EQ(out, "replication disabled\n");
  }
  // Replication on: one row per replica with roles and terms.
  {
    sim::Simulator sim;
    core::ClusterConfig cfg = core::ClusterConfig::es40(16);
    cfg.storm.quantum = 10_ms;
    cfg.storm.replication_enabled = true;
    core::Cluster cluster(sim, cfg);
    cluster.submit({.name = "payload", .binary_size = 1_MB, .npes = 16});
    ASSERT_TRUE(cluster.run_until_all_complete(60_sec));

    const StateSnapshot live = capture(cluster);
    std::string err;
    const std::string out =
        render_view("replication", live, ViewOptions{}, &err);
    EXPECT_NE(out.find("leader"), std::string::npos) << out;
    EXPECT_NE(out.find("follower"), std::string::npos) << out;

    StateSnapshot parsed;
    ASSERT_TRUE(from_json(to_json(live), parsed, &err)) << err;
    EXPECT_EQ(parsed.replicas.size(), 3u);
    const std::string from_file =
        render_view("replication", parsed, ViewOptions{}, &err);
    EXPECT_EQ(out, from_file);
  }
}

TEST(Views, SpansJobFilter) {
  sim::Simulator sim;
  core::Cluster cluster(sim, core::ClusterConfig::es40(8));
  cluster.enable_tracing();
  cluster.submit({.name = "a", .binary_size = 1_MB, .npes = 8});
  cluster.submit({.name = "b", .binary_size = 1_MB, .npes = 8});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
  const StateSnapshot t = capture(cluster);
  std::string err;

  const std::string all = render_view("spans", t, ViewOptions{}, &err);
  ViewOptions job0;
  job0.job = 0;
  const std::string only0 = render_view("spans", t, job0, &err);
  EXPECT_FALSE(only0.empty());
  EXPECT_LT(only0.size(), all.size());  // the filter drops job 1's spans

  ViewOptions absent;
  absent.job = 99;
  const std::string none = render_view("spans", t, absent, &err);
  EXPECT_NE(none.find("no spans"), std::string::npos) << none;
}

TEST(Views, TimeseriesViewsRenderLiveAndFromSnapshotIdentically) {
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(16);
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;
  core::Cluster cluster(sim, cfg);
  cluster.enable_fabric_metrics();
  cluster.enable_timeseries({});
  cluster.submit({.name = "payload", .binary_size = 4_MB, .npes = 32});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));

  const StateSnapshot live = capture(cluster);
  EXPECT_FALSE(live.timeseries.empty());
  StateSnapshot parsed;
  std::string err;
  ASSERT_TRUE(from_json(to_json(live), parsed, &err)) << err;
  EXPECT_FALSE(parsed.timeseries.empty());

  for (const char* name : {"top", "watch", "metrics"}) {
    const std::string a = render_view(name, live, ViewOptions{}, &err);
    const std::string b =
        render_view(name, parsed, ViewOptions{}, &err);
    EXPECT_TRUE(err.empty()) << name << ": " << err;
    EXPECT_EQ(a, b) << name;
  }
  const std::string top = render_view("top", live, ViewOptions{}, &err);
  EXPECT_NE(top.find("timeseries: windows"), std::string::npos) << top;
  EXPECT_NE(top.find("fabric.bytes.payload"), std::string::npos) << top;

  // --prefix narrows the series list; --top caps it.
  ViewOptions narrowed;
  narrowed.prefix = "fabric.";
  narrowed.top = 2;
  const std::string few = render_view("top", live, narrowed, &err);
  EXPECT_NE(few.find("(prefix fabric.)"), std::string::npos) << few;
  EXPECT_LT(few.size(), top.size());
}

TEST(Views, TimeseriesViewsHintWhenRecorderOff) {
  sim::Simulator sim;
  core::Cluster cluster(sim, core::ClusterConfig::es40(4));
  cluster.enable_fabric_metrics();
  cluster.submit({.name = "a", .binary_size = 1_MB, .npes = 8});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
  const StateSnapshot t = capture(cluster);
  std::string err;
  for (const char* name : {"top", "watch"}) {
    const std::string out = render_view(name, t, ViewOptions{}, &err);
    EXPECT_NE(out.find("no timeseries"), std::string::npos) << out;
  }
  // `metrics` reads the cumulative metrics table, which works without
  // the recorder.
  const std::string m = render_view("metrics", t, ViewOptions{}, &err);
  EXPECT_NE(m.find("fabric.bytes.payload"), std::string::npos) << m;
}

TEST(Views, SpansHintWhenTracingDisabled) {
  sim::Simulator sim;
  core::Cluster cluster(sim, core::ClusterConfig::es40(4));
  const StateSnapshot t = capture(cluster);
  std::string err;
  const std::string out = render_view("spans", t, ViewOptions{}, &err);
  EXPECT_NE(out.find("tracing"), std::string::npos) << out;
}

}  // namespace
}  // namespace storm::query
