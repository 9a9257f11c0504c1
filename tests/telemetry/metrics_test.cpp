// MetricsRegistry primitives: histogram bucket boundaries, merge
// semantics, span timing, JSON export stability and the trace-line
// hook.
#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace storm::telemetry {
namespace {

using namespace storm::sim::time_literals;

TEST(Histogram, BucketBoundaries) {
  // Bucket 0: non-positive samples.
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(-1), 0);
  EXPECT_EQ(Histogram::bucket_of(std::int64_t{-1} << 40), 0);
  // Bucket i (i >= 1) covers [2^(i-1), 2^i): exact powers of two open
  // a new bucket, their predecessors close the previous one.
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(7), 3);
  EXPECT_EQ(Histogram::bucket_of(8), 4);
  EXPECT_EQ(Histogram::bucket_of((std::int64_t{1} << 47) - 1), 47);
  EXPECT_EQ(Histogram::bucket_of(std::int64_t{1} << 47), 48);
  // Overflow: everything at or above 2^48 lands in the last bucket.
  EXPECT_EQ(Histogram::bucket_of((std::int64_t{1} << 48) - 1), 48);
  EXPECT_EQ(Histogram::bucket_of(std::int64_t{1} << 48), 49);
  EXPECT_EQ(Histogram::bucket_of(std::int64_t{1} << 62),
            Histogram::kOverflowBucket);
}

TEST(Histogram, BucketLoIsInverseOfBucketOf) {
  for (int i = 1; i < Histogram::kOverflowBucket; ++i) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(i)), i);
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(i) - 1), i - 1);
  }
  EXPECT_EQ(Histogram::bucket_lo(0), 0);
}

TEST(Histogram, RecordTracksMoments) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  h.record(10);
  h.record(1000);
  h.record(0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum(), 1010);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_DOUBLE_EQ(h.mean(), 1010.0 / 3.0);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_of(10)), 1);
  EXPECT_EQ(h.bucket_count(0), 1);
}

TEST(Histogram, Merge) {
  Histogram a, b;
  a.record(4);
  b.record(1024);
  b.record(2);
  a.merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.sum(), 1030);
  EXPECT_EQ(a.min(), 2);
  EXPECT_EQ(a.max(), 1024);
  // Merging an empty histogram is a no-op.
  Histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 3);
}

TEST(Registry, InstrumentsAreStableAndIdempotent) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("x");
  Counter& c2 = reg.counter("x");
  EXPECT_EQ(&c1, &c2);
  c1.add(3);
  EXPECT_EQ(reg.find_counter("x")->value(), 3);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, MergeSemantics) {
  MetricsRegistry a, b;
  a.counter("c").add(1);
  b.counter("c").add(2);
  b.gauge("g").set(7.0);
  a.gauge("g").set(3.0);
  b.histogram("h").record(5);
  a.merge(b);
  EXPECT_EQ(a.find_counter("c")->value(), 3);
  // Gauges: the merged-in (later) run's sample wins.
  EXPECT_DOUBLE_EQ(a.find_gauge("g")->value(), 7.0);
  EXPECT_EQ(a.find_histogram("h")->count(), 1);
}

TEST(Registry, JsonIsSortedAndStable) {
  MetricsRegistry a;
  a.counter("zeta").add(1);
  a.counter("alpha").add(2);
  a.gauge("mid").set(0.25);
  a.histogram("lat").record(3);
  const std::string j1 = a.to_json();
  // Same content inserted in a different order serialises identically.
  MetricsRegistry b;
  b.histogram("lat").record(3);
  b.counter("alpha").add(2);
  b.gauge("mid").set(0.25);
  b.counter("zeta").add(1);
  EXPECT_EQ(j1, b.to_json());
  EXPECT_NE(j1.find("\"schema\": \"storm.metrics.v1\""), std::string::npos);
  EXPECT_LT(j1.find("\"alpha\""), j1.find("\"zeta\""));
  // Histogram buckets export as [lo, count] pairs; 3 lives in [2, 4).
  EXPECT_NE(j1.find("\"buckets\": [[2, 1]]"), std::string::npos);
}

TEST(Registry, EmptyJsonIsWellFormed) {
  MetricsRegistry reg;
  const std::string j = reg.to_json();
  EXPECT_NE(j.find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(j.find("\"gauges\": {}"), std::string::npos);
  EXPECT_NE(j.find("\"histograms\": {}"), std::string::npos);
}

TEST(Gauge, SetMaxKeepsHighWaterMark) {
  Gauge g;
  EXPECT_FALSE(g.ever_set());
  g.set_max(2.0);
  g.set_max(5.0);
  g.set_max(3.0);
  EXPECT_TRUE(g.ever_set());
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
}

TEST(Span, RecordsSimulatedDuration) {
  sim::Simulator sim;
  MetricsRegistry reg;
  Histogram& h = reg.histogram("span_ns");
  {
    Span span(sim, h);
    sim.run(25_us);  // empty queue: the clock jumps to `until`
  }
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.sum(), (25_us).raw_ns());
}

TEST(OverheadRatio, ComputedFromByteCounters) {
  MetricsRegistry reg;
  update_overhead_ratio(reg);  // no counters: no gauge appears
  EXPECT_EQ(reg.find_gauge(kOverheadRatioGauge), nullptr);
  reg.counter(kControlBytesCounter).add(100);
  reg.counter(kPayloadBytesCounter).add(900);
  update_overhead_ratio(reg);
  ASSERT_NE(reg.find_gauge(kOverheadRatioGauge), nullptr);
  EXPECT_DOUBLE_EQ(reg.find_gauge(kOverheadRatioGauge)->value(), 0.1);
}

}  // namespace
}  // namespace storm::telemetry
