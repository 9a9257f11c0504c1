// Causal tracing: context propagation through a full middleware chain,
// span nesting across NM descheduling, same-seed byte-identity of the
// trace buffer under parallel sweeps, and the launch critical path
// against the paper's analytic model (Eq. 3).
#include "telemetry/tracing.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "bench/runner.hpp"
#include "fabric/fault_plan.hpp"
#include "fabric/trace_sink.hpp"
#include "model/launch_model.hpp"
#include "storm/cluster.hpp"

namespace storm::telemetry {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::JobId;
using sim::SimTime;
using sim::Task;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

core::AppProgram compute_program(SimTime work) {
  return
      [work](core::AppContext& ctx) -> Task<> { co_await ctx.compute(work); };
}

/// Count closed spans of `kind`; for each, `visit(span, parent)` with
/// parent nullptr for roots.
template <typename Fn>
int for_each_closed(const TraceBuffer& buf, SpanKind kind, Fn&& visit) {
  int n = 0;
  for (const SpanRecord& s : buf.records().spans) {
    if (s.span_kind() != kind || s.open()) continue;
    ++n;
    visit(s, s.parent != 0 ? buf.records().find(s.parent) : nullptr);
  }
  return n;
}

TEST(CausalTracing, ContextSurvivesFullMiddlewareChain) {
  // A seeded campaign of strobe loss, command jitter, and delivery
  // reordering between the dæmons: the trace context stamped by the MM
  // must still arrive at every NM span, and the chunk-cause harvested
  // from the XFER envelopes must still parent the NM chunk writes.
  sim::Simulator sim(0x7ACE'01ULL);
  ClusterConfig cfg = ClusterConfig::es40(8);
  cfg.app_cpus_per_node = 2;
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;
  Cluster cluster(sim, cfg);
  cluster.enable_tracing();
  using fabric::FaultRule;
  auto plan = std::make_shared<fabric::FaultPlan>(sim, sim.rng().fork(0x7ACE));
  plan->add(FaultRule::lossy(fabric::MsgClass::Strobe, 0.02));
  plan->add(FaultRule::jitter(fabric::MsgClass::Launch,
                              FaultRule::Dist::Uniform, 1_us, 20_us));
  const std::size_t reorder = plan->add(FaultRule::reorder(30_us));
  auto sink = std::make_shared<fabric::StructuredTraceSink>(sim);
  cluster.fabric().push(plan);
  cluster.fabric().push(sink);

  cluster.submit(
      {.binary_size = 2_MB, .npes = 16, .program = compute_program(300_ms)});
  cluster.submit(
      {.binary_size = 1_MB, .npes = 8, .program = compute_program(200_ms)});
  ASSERT_TRUE(cluster.run_until_all_complete(120_sec));
  ASSERT_NE(cluster.tracer(), nullptr);
  const TraceBuffer& buf = cluster.tracer()->buffer();
  EXPECT_GT(plan->rule(reorder).hits(), 0);
  EXPECT_EQ(buf.records().dropped, 0u);

  // Every NM launch handler span is parented on the MM's launch-issue
  // span — the context crossed the (jittered, reordered) wire.
  const int launches =
      for_each_closed(buf, SpanKind::NmLaunch,
                      [&](const SpanRecord& s, const SpanRecord* parent) {
                        ASSERT_NE(parent, nullptr) << "orphan NM launch span";
                        EXPECT_EQ(parent->span_kind(), SpanKind::MmLaunchIssue);
                        EXPECT_EQ(parent->trace, s.trace);
                      });
  EXPECT_GE(launches, 2);  // one per job at least

  // Every chunk write is parented on the exact broadcast that carried
  // its bytes (context harvested from the XFER envelope).
  const int chunks =
      for_each_closed(buf, SpanKind::NmChunk,
                      [&](const SpanRecord& s, const SpanRecord* parent) {
                        ASSERT_NE(parent, nullptr) << "orphan chunk span";
                        EXPECT_EQ(parent->span_kind(), SpanKind::FtBcast);
                        EXPECT_EQ(parent->trace, s.trace);
                        EXPECT_EQ(parent->b, s.b);  // same chunk index
                      });
  EXPECT_GT(chunks, 0);

  // Cross-node parenting produced flow edges.
  EXPECT_FALSE(buf.records().flows.empty());
}

TEST(CausalTracing, SpanNestingSurvivesNmDescheduling) {
  // With two gangs time-slicing on every node, the NM coroutine is
  // repeatedly descheduled while a launch handler's span is open. The
  // RAII span must close with its handler, strictly containing the
  // fork span it caused.
  sim::Simulator sim(0x7ACE'02ULL);
  ClusterConfig cfg = ClusterConfig::es40(4);
  cfg.app_cpus_per_node = 2;
  cfg.storm.quantum = 5_ms;
  Cluster cluster(sim, cfg);
  cluster.enable_tracing();
  cluster.submit(
      {.binary_size = 1_MB, .npes = 8, .program = compute_program(100_ms)});
  cluster.submit(
      {.binary_size = 1_MB, .npes = 8, .program = compute_program(100_ms)});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
  const TraceBuffer& buf = cluster.tracer()->buffer();

  const int forks = for_each_closed(
      buf, SpanKind::PlFork, [&](const SpanRecord& s, const SpanRecord* parent) {
        ASSERT_NE(parent, nullptr) << "orphan fork span";
        EXPECT_EQ(parent->span_kind(), SpanKind::NmLaunch);
        // The handler span closed cleanly despite the descheduling,
        // and causality holds: it opened before the fork it caused
        // (the fork itself may outlive the handler — the launcher
        // runs on its own process).
        EXPECT_FALSE(parent->open());
        EXPECT_LE(parent->t_start_ns, s.t_start_ns);
      });
  EXPECT_GT(forks, 0);

  // The launch handlers themselves nest inside their job's root span.
  for_each_closed(
      buf, SpanKind::NmLaunch,
      [&](const SpanRecord& s, const SpanRecord*) {
        const SpanRecord* root = nullptr;
        for (const SpanRecord& r : buf.records().spans) {
          if (r.trace == s.trace && r.span_kind() == SpanKind::JobLaunch) {
            root = &r;
            break;
          }
        }
        ASSERT_NE(root, nullptr);
        EXPECT_LE(root->t_start_ns, s.t_start_ns);
      });
}

TEST(CausalTracing, TraceBufferBytesIdenticalAcrossSweepJobs) {
  // The fig04-style contract extended to traces: evaluating sweep
  // points on a --jobs 4 pool must yield TraceBuffer byte images
  // identical to the serial run, point for point.
  auto sweep = [](int jobs) {
    std::vector<std::vector<std::uint8_t>> images(4);
    const bench::SweepRunner runner(jobs);
    runner.run(
        images.size(),
        [](std::size_t i) {
          sim::Simulator sim(0x7ACE'03ULL + i);
          ClusterConfig cfg = ClusterConfig::es40(4);
          cfg.storm.quantum = 5_ms;
          Cluster cluster(sim, cfg);
          cluster.enable_tracing();
          cluster.submit({.binary_size = 1_MB, .npes = 8});
          EXPECT_TRUE(cluster.run_until_all_complete(60_sec));
          return cluster.tracer()->buffer().bytes();
        },
        [&](std::size_t i, std::vector<std::uint8_t>& bytes) {
          images[i] = std::move(bytes);
        });
    return images;
  };

  const auto serial = sweep(1);
  const auto pooled = sweep(4);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_FALSE(serial[i].empty());
    EXPECT_EQ(serial[i], pooled[i]) << "sweep point " << i;
  }
}

TEST(CausalTracing, Fig02CriticalPathMatchesLaunchModel) {
  // The fig02 anchor (12 MB, 256 PEs on 64 nodes, 1 ms quantum): the
  // critical path of the job's trace must agree with the paper's
  // Eq. 3 launch model — transfer term from the analytic bandwidth
  // model, execute term from the run itself — within 5%.
  sim::Simulator sim(0xF16'02ULL);
  ClusterConfig cfg = ClusterConfig::es40(64);
  cfg.storm.quantum = 1_ms;
  Cluster cluster(sim, cfg);
  cluster.enable_tracing();
  const JobId id = cluster.submit({.binary_size = 12_MB, .npes = 256});
  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));

  const TraceBuffer& buf = cluster.tracer()->buffer();
  const LaunchCriticalPath cp = analyze_launch(buf, job_trace_id(0, 0));
  ASSERT_GT(cp.spans, 0);
  ASSERT_GT(cp.total_ns, 0);

  model::LaunchModelParams p;
  p.exec_time = cluster.job(id).times().execute_time();
  const double model_ms = model::es40_launch_time(64, p).to_millis();
  const double cp_ms = static_cast<double>(cp.total_ns) * 1e-6;
  EXPECT_NEAR(cp_ms, model_ms, model_ms * 0.05)
      << format_critical_path(cp);

  // The decomposition is sane: the broadcast dominates (the 131 MB/s
  // host-serialisation bound), segments cover the whole path, and the
  // cluster genuinely overlapped work along it.
  std::int64_t sum = 0;
  for (const std::int64_t ns : cp.per_kind_ns) sum += ns;
  EXPECT_EQ(sum, cp.total_ns);
  EXPECT_GT(cp.kind_ns(SpanKind::FtBcast), cp.total_ns / 2);
  EXPECT_GT(cp.overlap_factor, 1.0);
}

}  // namespace
}  // namespace storm::telemetry
