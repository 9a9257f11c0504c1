#include "bench/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace storm::bench {
namespace {

TEST(SweepRunner, SerialRunsInline) {
  const SweepRunner runner(1);
  const auto main_thread = std::this_thread::get_id();
  std::vector<std::size_t> committed;
  runner.run(
      5,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), main_thread);
        return i * 10;
      },
      [&](std::size_t i, std::size_t& r) {
        EXPECT_EQ(r, i * 10);
        committed.push_back(i);
      });
  EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(SweepRunner, CommitsInIndexOrderDespiteOutOfOrderCompletion) {
  const SweepRunner runner(4);
  // Early points sleep longest, so later points finish first; commits
  // must still arrive in index order, on the calling thread.
  const auto main_thread = std::this_thread::get_id();
  std::vector<std::size_t> committed;
  runner.run(
      8,
      [](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(8 - i));
        return i;
      },
      [&](std::size_t i, std::size_t& r) {
        EXPECT_EQ(std::this_thread::get_id(), main_thread);
        EXPECT_EQ(r, i);
        committed.push_back(i);
      });
  EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SweepRunner, EveryPointEvaluatedExactlyOnce) {
  const SweepRunner runner(4);
  std::atomic<int> evaluations{0};
  std::vector<bool> seen(100, false);
  runner.run(
      100,
      [&](std::size_t i) {
        evaluations.fetch_add(1);
        return i;
      },
      [&](std::size_t i, std::size_t& r) {
        EXPECT_EQ(i, r);
        EXPECT_FALSE(seen[i]);
        seen[i] = true;
      });
  EXPECT_EQ(evaluations.load(), 100);
  for (bool s : seen) EXPECT_TRUE(s);
}

// The determinism contract behind `--jobs`: each point runs its own
// same-seeded Simulator, and the committed row stream plus the merged
// metrics registry are byte-identical to a serial run.
struct SimPoint {
  std::string trace;
  telemetry::MetricsRegistry metrics;
};

SimPoint run_sim_point(std::size_t i) {
  SimPoint out;
  sim::Simulator sim(0xBEEF + static_cast<std::uint64_t>(i));
  telemetry::Counter& events = out.metrics.counter("test.events");
  telemetry::Histogram& gaps = out.metrics.histogram("test.gaps");
  sim::SimTime last = sim::SimTime::zero();
  for (int k = 0; k < 50; ++k) {
    const auto t =
        sim::SimTime::ns(static_cast<std::int64_t>(sim.rng().next() % 10'000));
    if (t < sim.now()) continue;
    sim.schedule_at(t, [&, t] {
      events.add(1);
      gaps.record(t - last);
      last = t;
      out.trace += std::to_string(t.raw_ns()) + ";";
    });
  }
  sim.run();
  out.metrics.gauge("test.last_ns").set(static_cast<double>(last.raw_ns()));
  return out;
}

TEST(SweepRunner, SameSeedSerialVsJobs4ByteIdentical) {
  const std::size_t kPoints = 12;
  auto run_all = [&](int jobs) {
    const SweepRunner runner(jobs);
    std::string rows;
    telemetry::MetricsRegistry master;
    runner.run(kPoints, run_sim_point, [&](std::size_t i, SimPoint& p) {
      rows += "[";
      rows += std::to_string(i);
      rows += "]";
      rows += p.trace;
      rows += "\n";
      master.merge(p.metrics);
    });
    return std::make_pair(rows, master.to_json());
  };
  const auto [serial_rows, serial_json] = run_all(1);
  const auto [parallel_rows, parallel_json] = run_all(4);
  EXPECT_EQ(serial_rows, parallel_rows);
  EXPECT_EQ(serial_json, parallel_json);
  EXPECT_NE(serial_rows.find("[11]"), std::string::npos);
}

TEST(SweepRunner, PointExceptionRethrownOnCallingThread) {
  const SweepRunner runner(4);
  std::vector<std::size_t> committed;
  EXPECT_THROW(
      runner.run(
          16,
          [](std::size_t i) -> std::size_t {
            if (i == 3) throw std::runtime_error("point 3 failed");
            return i;
          },
          [&](std::size_t i, std::size_t&) { committed.push_back(i); }),
      std::runtime_error);
  // Only a prefix of points before the failure may have committed.
  for (std::size_t k = 0; k < committed.size(); ++k) {
    EXPECT_EQ(committed[k], k);
    EXPECT_LT(committed[k], 3u);
  }
}

TEST(SweepRunner, MoreJobsThanPoints) {
  const SweepRunner runner(16);
  std::vector<std::size_t> committed;
  runner.run(
      3, [](std::size_t i) { return i; },
      [&](std::size_t i, std::size_t&) { committed.push_back(i); });
  EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(SweepRunner, JobsFlagParsesAndDefaults) {
  const char* argv1[] = {"prog", "--jobs", "4"};
  EXPECT_EQ(Harness(3, const_cast<char**>(argv1), "test", {kJobsFlag}).jobs(),
            4);
  const char* argv2[] = {"prog", "--fast"};
  EXPECT_EQ(Harness(2, const_cast<char**>(argv2), "test", {kJobsFlag}).jobs(),
            1);
}

TEST(SweepRunner, ZeroPointsIsANoOp) {
  const SweepRunner runner(4);
  runner.run(
      0, [](std::size_t i) { return i; },
      [&](std::size_t, std::size_t&) { FAIL() << "no points to commit"; });
}

}  // namespace
}  // namespace storm::bench
