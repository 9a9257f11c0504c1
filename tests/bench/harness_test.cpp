// bench::Harness: the command-line parser's usage errors, and the
// capture/commit split — Points captured on a --jobs 4 pool must
// export the same bytes as a serial sweep.
#include "bench/harness.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "bench/runner.hpp"
#include "storm/cluster.hpp"
#include "telemetry/tracing.hpp"

namespace storm::bench {
namespace {

using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

/// Construct a Harness from `args` (argv[0] is supplied).
void parse(std::vector<std::string> args,
           std::initializer_list<Flag> extra = {}) {
  args.insert(args.begin(), "harness_test");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  const Harness h(static_cast<int>(argv.size()), argv.data(), "test", extra);
}

TEST(HarnessFlags, AcceptsCommonAndDeclaredFlags) {
  parse({"--fast", "--metrics", "m.json", "--watchdog", "mm.strobes > 1",
         "--watchdog", "mm.strobes < 1e9", "--timeseries-window", "2.5",
         "--state", "-", "--jobs", "3"},
        {kJobsFlag});
}

TEST(HarnessFlagsDeathTest, MissingValueExits2) {
  EXPECT_EXIT(parse({"--fast", "--metrics"}), testing::ExitedWithCode(2),
              "--metrics requires a value");
  EXPECT_EXIT(parse({"--min-node-events-per-s"}), testing::ExitedWithCode(2),
              "--min-node-events-per-s requires a value");
}

TEST(HarnessFlagsDeathTest, NonNumericValueExits2) {
  EXPECT_EXIT(parse({"--min-node-events-per-s", "abc"}),
              testing::ExitedWithCode(2), "'abc' is not a positive number");
  EXPECT_EXIT(parse({"--timeseries-window", "5ms"}),
              testing::ExitedWithCode(2), "'5ms' is not a positive number");
  EXPECT_EXIT(parse({"--jobs", "2.5"}, {kJobsFlag}),
              testing::ExitedWithCode(2), "not a positive integer");
}

TEST(HarnessFlagsDeathTest, NonPositiveValueExits2) {
  EXPECT_EXIT(parse({"--timeseries-window", "0"}), testing::ExitedWithCode(2),
              "'0' is not a positive number");
  EXPECT_EXIT(parse({"--max-wall-s", "-1"},
                    {{"--max-wall-s", Flag::Arg::Number}}),
              testing::ExitedWithCode(2), "'-1' is not a positive number");
  EXPECT_EXIT(parse({"--jobs", "2000"}, {kJobsFlag}),
              testing::ExitedWithCode(2), "'2000' is not a positive integer");
}

TEST(HarnessFlagsDeathTest, UnknownFlagExits2AndNamesIt) {
  EXPECT_EXIT(parse({"--fast", "--metric", "m.json"}),
              testing::ExitedWithCode(2), "unknown flag '--metric'");
  // A flag another harness declares is unknown here.
  EXPECT_EXIT(parse({"--jobs", "2"}), testing::ExitedWithCode(2),
              "unknown flag '--jobs'");
  EXPECT_EXIT(parse({"stray"}), testing::ExitedWithCode(2),
              "unknown flag 'stray'");
}

TEST(HarnessFlagsDeathTest, EmptyPathExits2) {
  EXPECT_EXIT(parse({"--trace", ""}), testing::ExitedWithCode(2),
              "--trace requires a non-empty path");
}

TEST(HarnessFlagsDeathTest, MalformedWatchdogExits2) {
  EXPECT_EXIT(parse({"--watchdog", "mm.strobes >"}),
              testing::ExitedWithCode(2), "--watchdog 'mm.strobes >'");
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Run a 5-point sweep of two small launches per point on `jobs`
/// workers, exporting every artifact under `dir`; returns the files'
/// contents (metrics without its peak-RSS line). Earlier points move
/// bigger binaries, so on a pool they finish last.
std::vector<std::string> sweep_artifacts(int jobs, const std::string& dir) {
  const std::vector<std::string> kinds = {"metrics", "timeseries", "trace",
                                          "state"};
  std::vector<std::string> args = {"harness_test"};
  for (const auto& k : kinds) {
    args.push_back("--" + k);
    args.push_back(dir + k + ".json");
  }
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  Harness h(static_cast<int>(argv.size()), argv.data(), "test");

  const SweepRunner runner(jobs);
  runner.run(
      5,
      [&](std::size_t i) {
        Point point;
        const sim::Bytes base = static_cast<sim::Bytes>(5 - i) * 1_MB;
        for (const sim::Bytes binary : {base, base + 1_MB}) {
          sim::Simulator sim(0x4A'12ULL + i);
          core::ClusterConfig cfg = core::ClusterConfig::es40(4);
          cfg.storm.quantum = 2_ms;
          core::Cluster cluster(sim, cfg);
          h.attach(cluster);
          cluster.submit({.binary_size = binary,
                          .npes = 4 * static_cast<int>(i % 4 + 1)});
          EXPECT_TRUE(cluster.run_until_all_complete(60_sec));
          h.capture(cluster, point);
        }
        return point;
      },
      [&](std::size_t, Point& point) { h.commit(std::move(point)); });
  testing::internal::CaptureStdout();
  const int rc = h.finish();
  testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);

  std::vector<std::string> out;
  for (const auto& k : kinds) {
    std::string text = slurp(dir + k + ".json");
    if (k == "metrics") {
      const auto at = text.find("  \"proc\": ");
      if (at != std::string::npos) text.erase(at, text.find('\n', at) - at + 1);
    }
    EXPECT_GT(text.size(), 100u) << k;
    out.push_back(std::move(text));
  }
  return out;
}

TEST(HarnessPoint, PooledCommitsMatchSerialByteForByte) {
  const std::string dir = testing::TempDir();
  const auto serial = sweep_artifacts(1, dir + "harness_serial_");
  const auto pooled = sweep_artifacts(4, dir + "harness_pooled_");
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_TRUE(serial[k] == pooled[k]) << "artifact " << k;
  }
}

TEST(HarnessPoint, BenchJsonCountsDroppedSpansOverAllRuns) {
  // Every run overflows a tiny trace buffer; the storm.bench.v1 record
  // must count the spans lost in all of them, not only the written run.
  const std::string dir = testing::TempDir() + "harness_dropped_";
  std::vector<std::string> args = {"harness_test", "--jobs", "2",
                                   "--trace", dir + "t.json",
                                   "--bench-json", dir + "b.json"};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  Harness h(static_cast<int>(argv.size()), argv.data(), "test", {kJobsFlag});

  struct Out {
    Point point;
    std::size_t dropped = 0;
  };
  std::size_t want = 0;
  const SweepRunner runner(h.jobs());
  runner.run(
      3,
      [&](std::size_t i) {
        Out out;
        for (int run = 0; run < 2; ++run) {
          sim::Simulator sim(0xD0'0DULL + i);
          core::Cluster cluster(sim, core::ClusterConfig::es40(4));
          h.attach(cluster);
          cluster.tracer()->buffer().set_capacity(4 + i);
          cluster.submit({.binary_size = 1_MB, .npes = 4});
          EXPECT_TRUE(cluster.run_until_all_complete(60_sec));
          out.dropped += cluster.tracer()->buffer().records().dropped;
          h.capture(cluster, out.point);
        }
        return out;
      },
      [&](std::size_t, Out& out) {
        want += out.dropped;
        h.commit(std::move(out.point));
      });
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_EQ(h.finish(), 0);
  testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();

  ASSERT_GT(want, 0u);
  EXPECT_NE(slurp(dir + "b.json").find("\"trace_dropped\": " +
                                       std::to_string(want) + ",\n"),
            std::string::npos);
  EXPECT_NE(err.find(std::to_string(want) + " spans dropped over 6 runs"),
            std::string::npos)
      << err;
}

}  // namespace
}  // namespace storm::bench
