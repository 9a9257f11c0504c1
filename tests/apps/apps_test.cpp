#include <gtest/gtest.h>

#include "apps/sweep3d.hpp"
#include "apps/synthetic.hpp"
#include "storm/cluster.hpp"

namespace storm::apps {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::JobId;
using sim::SimTime;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

TEST(Sweep3dGrid, MostSquareFactorisation) {
  EXPECT_EQ(sweep3d_grid(64), (std::pair<int, int>{8, 8}));
  EXPECT_EQ(sweep3d_grid(16), (std::pair<int, int>{4, 4}));
  EXPECT_EQ(sweep3d_grid(8), (std::pair<int, int>{2, 4}));
  EXPECT_EQ(sweep3d_grid(2), (std::pair<int, int>{1, 2}));
  EXPECT_EQ(sweep3d_grid(1), (std::pair<int, int>{1, 1}));
  EXPECT_EQ(sweep3d_grid(12), (std::pair<int, int>{3, 4}));
}

TEST(Sweep3dIterations, MatchesTargetRuntime) {
  Sweep3DParams p;
  p.target_runtime = 48_sec;
  p.octant_work = SimTime::millis(6);
  p.octants = 8;
  EXPECT_EQ(sweep3d_iterations(p), 1000);
  const double total =
      sweep3d_iterations(p) * 8 * 0.006;
  EXPECT_NEAR(total, 48.0, 0.5);
}

TEST(Synthetic, RunsForConfiguredWork) {
  sim::Simulator sim;
  Cluster cluster(sim, ClusterConfig::es40(2));
  const JobId id = cluster.submit({.binary_size = 1_MB,
                                   .npes = 8,
                                   .program = synthetic_computation(300_ms)});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
  const auto& t = cluster.job(id).times();
  EXPECT_GT((t.finished - t.launch_issued).to_millis(), 300.0);
  EXPECT_LT((t.finished - t.launch_issued).to_millis(), 420.0);
}

TEST(Synthetic, GranularBurstsEquivalentToSingle) {
  auto run = [](core::AppProgram prog) {
    sim::Simulator sim;
    Cluster cluster(sim, ClusterConfig::es40(2));
    const JobId id = cluster.submit(
        {.binary_size = 1_MB, .npes = 4, .program = std::move(prog)});
    EXPECT_TRUE(cluster.run_until_all_complete(60_sec));
    return (cluster.job(id).times().finished -
            cluster.job(id).times().launch_issued)
        .to_seconds();
  };
  const double single = run(synthetic_computation(400_ms));
  const double bursts = run(synthetic_computation(400_ms, 10_ms));
  EXPECT_NEAR(single, bursts, 0.05);
}

TEST(Sweep3d, SmallRunCompletesOnGrid) {
  sim::Simulator sim;
  ClusterConfig cfg = ClusterConfig::es40(4);
  cfg.app_cpus_per_node = 4;
  Cluster cluster(sim, cfg);
  Sweep3DParams p;
  p.target_runtime = 500_ms;
  p.octant_work = SimTime::millis(4);
  const JobId id = cluster.submit(
      {.binary_size = 1_MB, .npes = 16, .program = sweep3d(p)});
  ASSERT_TRUE(cluster.run_until_all_complete(120_sec));
  const auto& t = cluster.job(id).times();
  const double run = (t.finished - t.launch_issued).to_seconds();
  // Wavefront skew and exchanges add a modest overhead over the pure
  // compute time.
  EXPECT_GT(run, 0.5);
  EXPECT_LT(run, 1.0);
}

TEST(Sweep3d, ScalesWeaklyAcrossNodes) {
  // Fixed per-PE work: runtime should be nearly flat in node count
  // (Figure 5's observation).
  auto run_nodes = [](int nodes) {
    sim::Simulator sim;
    ClusterConfig cfg = ClusterConfig::es40(nodes);
    cfg.app_cpus_per_node = 2;
    Cluster cluster(sim, cfg);
    Sweep3DParams p;
    p.target_runtime = 400_ms;
    p.octant_work = SimTime::millis(4);
    const JobId id = cluster.submit(
        {.binary_size = 1_MB, .npes = nodes * 2, .program = sweep3d(p)});
    EXPECT_TRUE(cluster.run_until_all_complete(300_sec));
    return (cluster.job(id).times().finished -
            cluster.job(id).times().launch_issued)
        .to_seconds();
  };
  const double n2 = run_nodes(2);
  const double n16 = run_nodes(16);
  EXPECT_LT(n16, n2 * 1.4);
}

}  // namespace
}  // namespace storm::apps
