// MetricsAggregator middleware: per-class fabric counters, latency
// histograms, overhead accounting and same-seed determinism, exercised
// through whole-cluster runs.
#include "telemetry/aggregator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fabric/fault_plan.hpp"
#include "fabric/trace_sink.hpp"
#include "storm/cluster.hpp"
#include "telemetry/metrics.hpp"

namespace storm::telemetry {
namespace {

using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

// 8 ES40 nodes x 4 app CPUs; a 4 MB binary in default 512 KB chunks
// makes exactly 8 chunk xfers, received once per node.
constexpr int kNodes = 8;
constexpr int kChunks = 8;

struct RunResult {
  MetricsRegistry metrics;
  std::shared_ptr<fabric::StructuredTraceSink> sink;
  bool completed = false;
};

RunResult run_cluster(std::uint64_t seed) {
  sim::Simulator sim(seed);
  core::ClusterConfig cfg = core::ClusterConfig::es40(kNodes);
  cfg.storm.quantum = 10_ms;
  core::Cluster cluster(sim, cfg);
  cluster.enable_fabric_metrics();
  RunResult out;
  out.sink = std::make_shared<fabric::StructuredTraceSink>(sim);
  cluster.fabric().push(out.sink);
  cluster.submit({.name = "app", .binary_size = 4_MB, .npes = kNodes * 4});
  out.completed = cluster.run_until_all_complete(600_sec);
  out.metrics = cluster.metrics();
  return out;
}

TEST(MetricsAggregator, CountsAgreeWithStructuredTrace) {
  const RunResult r = run_cluster(0x7E1E'01ULL);
  ASSERT_TRUE(r.completed);

  using fabric::MsgClass;
  using fabric::OpKind;
  for (MsgClass c : {MsgClass::Strobe, MsgClass::Launch,
                     MsgClass::PrepareTransfer, MsgClass::LaunchChunk}) {
    const std::string base = "fabric." + std::string(to_string(c)) + ".";
    const Counter* delivered = r.metrics.find_counter(base + "delivered");
    const Counter* multicasts = r.metrics.find_counter(base + "multicasts");
    const Counter* xfers = r.metrics.find_counter(base + "xfers");
    ASSERT_NE(delivered, nullptr) << base;
    EXPECT_EQ(static_cast<std::size_t>(delivered->value()),
              r.sink->count(c, OpKind::CommandDeliver))
        << base;
    EXPECT_EQ(static_cast<std::size_t>(multicasts->value()),
              r.sink->count(c, OpKind::CommandMulticast))
        << base;
    EXPECT_EQ(static_cast<std::size_t>(xfers->value()),
              r.sink->count(c, OpKind::Xfer))
        << base;
  }
  // Each multicast fans out to every allocated node.
  EXPECT_EQ(r.metrics.find_counter("fabric.strobe.delivered")->value(),
            r.metrics.find_counter("fabric.strobe.multicasts")->value() *
                kNodes);
}

TEST(MetricsAggregator, FileTransferAndDaemonInstruments) {
  const RunResult r = run_cluster(0x7E1E'02ULL);
  ASSERT_TRUE(r.completed);

  EXPECT_EQ(r.metrics.find_counter("ft.transfers")->value(), 1);
  EXPECT_EQ(r.metrics.find_counter("ft.chunks")->value(), kChunks);
  EXPECT_EQ(r.metrics.find_counter("fabric.chunk.xfers")->value(), kChunks);
  // Every node writes every chunk to its RAM disk.
  EXPECT_EQ(r.metrics.find_counter("nm.chunks")->value(), kChunks * kNodes);
  EXPECT_EQ(r.metrics.find_histogram("nm.chunk.write_ns")->count(),
            kChunks * kNodes);
  // The image itself is the only payload on the fabric.
  EXPECT_EQ(r.metrics.find_counter(kPayloadBytesCounter)->value(),
            static_cast<std::int64_t>(4_MB));

  // Pipeline-stage histograms saw every chunk and measured real time.
  for (const char* h : {"ft.read_ns", "ft.assist_ns", "ft.bcast_ns"}) {
    const Histogram* hist = r.metrics.find_histogram(h);
    ASSERT_NE(hist, nullptr) << h;
    EXPECT_EQ(hist->count(), kChunks) << h;
    EXPECT_GT(hist->sum(), 0) << h;
  }

  // MM boundary work ran and sampled the matrix gauges.
  EXPECT_GT(r.metrics.find_histogram("mm.boundary_ns")->count(), 0);
  ASSERT_NE(r.metrics.find_gauge("mm.matrix.occupancy"), nullptr);
  EXPECT_TRUE(r.metrics.find_gauge("mm.matrix.occupancy")->ever_set());
  EXPECT_EQ(r.metrics.find_counter("mm.jobs.completed")->value(), 1);
  EXPECT_GT(r.metrics.find_counter("nm.cmds")->value(), 0);
}

TEST(MetricsAggregator, StrobeLatencyHistogramIsPopulated) {
  const RunResult r = run_cluster(0x7E1E'03ULL);
  ASSERT_TRUE(r.completed);
  const Histogram* lat = r.metrics.find_histogram("fabric.latency.strobe");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(),
            r.metrics.find_counter("fabric.strobe.delivered")->value());
  // Hardware multicast delivery is fast but never free.
  EXPECT_GT(lat->min(), 0);
  EXPECT_LT(lat->max(), (1_ms).raw_ns());
}

TEST(MetricsAggregator, OverheadRatioIsSmallButNonzero) {
  const RunResult r = run_cluster(0x7E1E'04ULL);
  ASSERT_TRUE(r.completed);
  MetricsRegistry reg = r.metrics;
  update_overhead_ratio(reg);
  const Gauge* g = reg.find_gauge(kOverheadRatioGauge);
  ASSERT_NE(g, nullptr);
  EXPECT_GT(g->value(), 0.0);
  // A single unloaded launch: management traffic is a sliver of the
  // 4 MB image (the paper's ~1% resource-management claim).
  EXPECT_LT(g->value(), 0.05);
}

TEST(MetricsAggregator, SameSeedRunsSerialiseIdentically) {
  const RunResult a = run_cluster(0x7E1E'05ULL);
  const RunResult b = run_cluster(0x7E1E'05ULL);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.metrics.to_json(), b.metrics.to_json());
  const RunResult c = run_cluster(0x7E1E'06ULL);
  ASSERT_TRUE(c.completed);
  // Different seed: OS-noise sampling shifts at least one histogram.
  EXPECT_NE(a.metrics.to_json(), c.metrics.to_json());
}

TEST(MetricsAggregator, DropCountersMatchFaultInjector) {
  sim::Simulator sim(0x7E1E'07ULL);
  core::ClusterConfig cfg = core::ClusterConfig::es40(kNodes);
  cfg.storm.quantum = 10_ms;
  core::Cluster cluster(sim, cfg);
  cluster.enable_fabric_metrics();
  auto plan =
      std::make_shared<fabric::FaultPlan>(sim, sim.rng().fork(0xFA117));
  plan->add(fabric::FaultRule::lossy(fabric::MsgClass::Strobe, 0.05));
  cluster.fabric().push(plan);

  auto work = [](core::AppContext& ctx) -> sim::Task<> {
    co_await ctx.compute(2_sec);
  };
  cluster.submit({.name = "gang",
                  .binary_size = 1_MB,
                  .npes = kNodes * 4,
                  .program = work});
  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));

  const std::int64_t injected = plan->rule(0).hits();
  ASSERT_GT(injected, 0) << "lossy rule never fired; weaken the seed?";
  EXPECT_EQ(cluster.metrics().find_counter("fabric.strobe.dropped")->value(),
            injected);
}

TEST(MetricsAggregator, CawRetriesCountFlowControlPolls) {
  // Tiny receive window (2 slots) with many chunks forces the sender
  // to repeat flow-control queries; each repeat of the same query is a
  // retry on the `credit` class.
  sim::Simulator sim(0x7E1E'08ULL);
  core::ClusterConfig cfg = core::ClusterConfig::es40(kNodes);
  cfg.storm.quantum = 10_ms;
  cfg.storm.slots = 2;
  core::Cluster cluster(sim, cfg);
  cluster.enable_fabric_metrics();
  cluster.submit({.name = "app", .binary_size = 8_MB, .npes = kNodes * 4});
  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));

  const Counter* caw = cluster.metrics().find_counter("fabric.credit.caw");
  ASSERT_NE(caw, nullptr);
  EXPECT_GT(caw->value(), 0);
  const Counter* retries =
      cluster.metrics().find_counter("fabric.credit.caw_retries");
  const Counter* polls = cluster.metrics().find_counter("ft.flow_polls");
  ASSERT_NE(retries, nullptr);
  ASSERT_NE(polls, nullptr);
  // Every failed poll re-issues the identical query: the aggregator's
  // consecutive-duplicate detection must see at least those.
  EXPECT_GE(retries->value(), polls->value());
}

}  // namespace
}  // namespace storm::telemetry
