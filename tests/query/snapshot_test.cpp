// storm.state.v1 snapshots: JSON reader units, capture → to_json →
// from_json round trips, typed cell rejection, same-seed
// byte-identity, snapshot location inside mixed bench output, and a
// mutation fuzz of the loader (fixed seed, fixed iteration budget).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "query/json.hpp"
#include "query/snapshot.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "storm/cluster.hpp"
#include "telemetry/timeseries.hpp"

namespace storm::query {
namespace {

using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

// --- json reader units ----------------------------------------------------

/// The exact int64 value of an integral token (0 when it has none).
std::int64_t int_of(const json::Value& v) {
  std::int64_t out = 0;
  EXPECT_TRUE(v.exact(out));
  return out;
}

TEST(Json, ScalarsAndExactIntegers) {
  json::Value v;
  ASSERT_TRUE(json::parse("  {\"a\": 9223372036854775807, \"b\": -4, "
                          "\"c\": 1.5, \"d\": true, \"e\": null, "
                          "\"f\": \"hi\\n\\\"there\\\"\", \"g\": 2e3}  ",
                          v));
  ASSERT_TRUE(v.is_object());
  const json::Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->integral);
  EXPECT_EQ(int_of(*a), 9223372036854775807LL);  // survives exactly
  EXPECT_EQ(int_of(*v.find("b")), -4);
  EXPECT_FALSE(v.find("c")->integral);
  EXPECT_DOUBLE_EQ(v.find("c")->as_double(), 1.5);
  EXPECT_TRUE(v.find("d")->boolean);
  EXPECT_TRUE(v.find("e")->is_null());
  EXPECT_EQ(v.find("f")->string, "hi\n\"there\"");
  EXPECT_FALSE(v.find("g")->integral);  // exponent → not exact
  EXPECT_DOUBLE_EQ(v.find("g")->as_double(), 2000.0);
}

TEST(Json, ArraysAndNesting) {
  json::Value v;
  ASSERT_TRUE(json::parse("[1, [2, {\"k\": [3]}], []]", v));
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.array.size(), 3u);
  EXPECT_EQ(int_of(v.array[0]), 1);
  EXPECT_EQ(int_of(v.array[1].array[1].find("k")->array[0]), 3);
  EXPECT_TRUE(v.array[2].array.empty());
}

TEST(Json, MalformedInputsError) {
  const char* bad[] = {
      "",          "{",        "[1,]",      "{\"a\" 1}", "{\"a\": }",
      "tru",       "\"unterminated",        "{\"a\": 1} extra",
      "[1 2]",     "01",       "+1",
  };
  for (const char* text : bad) {
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse(text, v, &err)) << "accepted: " << text;
    EXPECT_FALSE(err.empty()) << text;
  }
}

TEST(Json, IntegersBeyondInt64AreExactOrRejected) {
  json::Value v;
  ASSERT_TRUE(json::parse("[18446744073709551615, 14695981039346656037, "
                          "-9223372036854775808]",
                          v));
  std::uint64_t u = 0;
  EXPECT_TRUE(v.array[0].exact(u));
  EXPECT_EQ(u, 18446744073709551615ULL);
  EXPECT_TRUE(v.array[1].exact(u));
  EXPECT_EQ(u, 14695981039346656037ULL);  // FNV-1a offset basis
  std::int64_t i = 0;
  EXPECT_FALSE(v.array[1].exact(i));  // above INT64_MAX: no clamp
  EXPECT_TRUE(v.array[2].exact(i));
  EXPECT_EQ(i, INT64_MIN);
  EXPECT_FALSE(v.array[2].exact(u));  // negative: no wrap
  for (const char* text : {"18446744073709551616", "-9223372036854775809"}) {
    std::string err;
    EXPECT_FALSE(json::parse(text, v, &err)) << text;
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  }
}

TEST(Json, DuplicateKeysFirstWins) {
  json::Value v;
  ASSERT_TRUE(json::parse("{\"k\": 1, \"k\": 2}", v));
  EXPECT_EQ(int_of(*v.find("k")), 1);  // find() returns first match
}

// --- round trips ----------------------------------------------------------

core::ClusterConfig test_config(std::uint64_t seed = 42) {
  core::ClusterConfig cfg = core::ClusterConfig::es40(8);
  cfg.seed = seed;
  return cfg;
}

std::string run_and_snapshot(std::uint64_t seed) {
  sim::Simulator sim;
  core::Cluster cluster(sim, test_config(seed));
  cluster.enable_fabric_metrics();
  cluster.enable_tracing();
  cluster.submit({.name = "noop", .binary_size = 1_MB, .npes = 16});
  cluster.submit({.name = "noop2", .binary_size = 2_MB, .npes = 8});
  EXPECT_TRUE(cluster.run_until_all_complete(60_sec));
  return to_json(capture(cluster));
}

TEST(Snapshot, RoundTripPreservesEveryTable) {
  sim::Simulator sim;
  core::Cluster cluster(sim, test_config());
  cluster.enable_fabric_metrics();
  cluster.enable_tracing();
  cluster.submit({.name = "noop", .binary_size = 1_MB, .npes = 16});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));

  const StateSnapshot a = capture(cluster);
  const std::string json_a = to_json(a);
  StateSnapshot b;
  std::string err;
  ASSERT_TRUE(from_json(json_a, b, &err)) << err;
  EXPECT_EQ(b.meta.nodes, a.meta.nodes);
  EXPECT_EQ(b.meta.seed, a.meta.seed);
  EXPECT_EQ(b.meta.completed, a.meta.completed);
  EXPECT_EQ(b.nodes.size(), a.nodes.size());
  EXPECT_EQ(b.jobs.size(), a.jobs.size());
  EXPECT_EQ(b.incarnations.size(), a.incarnations.size());
  EXPECT_EQ(b.matrix_slots.size(), a.matrix_slots.size());
  EXPECT_EQ(b.metrics.size(), a.metrics.size());
  EXPECT_EQ(b.spans.size(), a.spans.size());
  // The strongest check: re-serialising the parsed snapshot is
  // byte-identical, so no field was lost or re-formatted.
  EXPECT_EQ(to_json(b), json_a);
}

// Every one of the nine tables populated: replication (whose
// floor_digest is above INT64_MAX for this job mix), the time-series
// recorder, a watchdog rule that fires, fabric metrics and tracing.
// Captured at t = 30 ms, while both jobs still hold matrix slots.
std::string nine_table_snapshot() {
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(16);
  cfg.storm.quantum = 10_ms;
  cfg.storm.replication_enabled = true;
  core::Cluster cluster(sim, cfg);
  cluster.enable_fabric_metrics();
  cluster.enable_tracing();
  telemetry::TimeSeriesOptions ts;
  ts.watchdogs.emplace_back();
  EXPECT_TRUE(telemetry::parse_watchdog("fabric.bytes.payload > 0",
                                        ts.watchdogs.back()));
  cluster.enable_timeseries(ts);
  for (int j = 0; j < 2; ++j) {
    cluster.submit({.name = "j" + std::to_string(j), .binary_size = 1_MB,
                    .npes = 8});
  }
  sim.run(30_ms);
  const StateSnapshot s = capture(cluster);
  EXPECT_FALSE(s.nodes.empty());
  EXPECT_FALSE(s.jobs.empty());
  EXPECT_FALSE(s.incarnations.empty());
  EXPECT_FALSE(s.matrix_slots.empty());
  EXPECT_FALSE(s.metrics.empty());
  EXPECT_FALSE(s.replicas.empty());
  EXPECT_FALSE(s.timeseries.empty());
  EXPECT_FALSE(s.breaches.empty());
  EXPECT_FALSE(s.spans.empty());
  bool above_int64 = false;
  for (const ReplicaRow& r : s.replicas) {
    above_int64 = above_int64 ||
                  r.floor_digest > static_cast<std::uint64_t>(INT64_MAX);
  }
  EXPECT_TRUE(above_int64);
  return to_json(s);
}

TEST(Snapshot, RoundTripPreservesAllNineTables) {
  const std::string json_a = nine_table_snapshot();
  StateSnapshot b;
  std::string err;
  ASSERT_TRUE(from_json(json_a, b, &err)) << err;
  EXPECT_EQ(to_json(b), json_a);
}

/// A one-row snapshot whose marker cells are easy to find and replace.
std::string marked_snapshot() {
  StateSnapshot s;
  NodeRow n;
  n.pl_mask = 888888;  // uint64 column
  n.pl_busy = 999999;  // int column
  s.nodes.push_back(n);
  JobRow j;
  j.binary_bytes = 777777;  // int64 column
  s.jobs.push_back(j);
  return to_json(s);
}

/// Loads marked_snapshot() with `marker` replaced by `cell` and
/// returns the loader's error; the unmodified snapshot must load.
std::string load_error(const std::string& marker, const std::string& cell) {
  std::string text = marked_snapshot();
  StateSnapshot clean;
  EXPECT_TRUE(from_json(text, clean));
  const std::size_t at = text.find(marker);
  EXPECT_NE(at, std::string::npos) << marker;
  text.replace(at, marker.size(), cell);
  StateSnapshot s;
  std::string err;
  EXPECT_FALSE(from_json(text, s, &err)) << cell;
  return err;
}

TEST(Snapshot, Int64CellRejectsHugeExponent) {
  EXPECT_EQ(load_error("777777", "1e300"), "table 'jobs': bad cell value");
}

TEST(Snapshot, Uint64CellRejectsNegative) {
  EXPECT_EQ(load_error("888888", "-1"), "table 'nodes': bad cell value");
}

TEST(Snapshot, IntCellRejectsValuePastIntMax) {
  EXPECT_EQ(load_error("999999", "2147483648"),
            "table 'nodes': bad cell value");
}

TEST(Snapshot, SameSeedRunsAreByteIdentical) {
  EXPECT_EQ(run_and_snapshot(7), run_and_snapshot(7));
}

TEST(Snapshot, DifferentSeedsDiffer) {
  EXPECT_NE(run_and_snapshot(7), run_and_snapshot(8));
}

TEST(Snapshot, FromJsonRejectsWrongSchema) {
  StateSnapshot s;
  std::string err;
  EXPECT_FALSE(from_json("{\"schema\": \"storm.metrics.v1\"}", s, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(from_json("not json", s, &err));
  EXPECT_FALSE(from_json("[]", s, &err));
}

// --- find_state_json ------------------------------------------------------

TEST(Snapshot, FindStateJsonInMixedOutput) {
  // A bench with `--state -` prints its tables first and the snapshot
  // last; find_state_json returns everything from the marker on.
  const std::string snap = run_and_snapshot(3);
  const std::string mixed =
      "bench banner\ntable row 1\ntable row 2\n" + snap;
  const std::string_view found = find_state_json(mixed);
  EXPECT_EQ(std::string(found), snap);
}

TEST(Snapshot, FindStateJsonPicksLastSnapshot) {
  const std::string a = run_and_snapshot(3);
  const std::string b = run_and_snapshot(4);
  const std::string mixed = a + "\nmore text\n" + b;
  EXPECT_EQ(std::string(find_state_json(mixed)), b);
}

TEST(Snapshot, FindStateJsonEmptyWhenAbsent) {
  EXPECT_TRUE(find_state_json("no snapshot here").empty());
  EXPECT_TRUE(find_state_json("").empty());
}

// --- loader fuzz ----------------------------------------------------------

/// One random byte flip, truncation or extension of `in`, copied into
/// a buffer of exactly its own size so a read past the end trips the
/// address sanitizer.
std::vector<char> mutate(std::string_view in, sim::Rng& rng) {
  std::vector<char> out(in.begin(), in.end());
  switch (rng.below(3)) {
    case 0: {
      const std::uint64_t flips = 1 + rng.below(4);
      for (std::uint64_t k = 0; k < flips && !out.empty(); ++k) {
        out[rng.below(out.size())] ^= static_cast<char>(1 << rng.below(8));
      }
      break;
    }
    case 1:
      out.resize(rng.below(out.size() + 1));
      break;
    default: {
      const std::uint64_t extra = 1 + rng.below(48);
      for (std::uint64_t k = 0; k < extra; ++k) {
        out.push_back(static_cast<char>(rng.below(256)));
      }
      break;
    }
  }
  out.shrink_to_fit();
  return out;
}

TEST(SnapshotFuzz, LoaderRejectsOrRoundTrips) {
  const std::string clean = nine_table_snapshot();
  sim::Rng rng(0x5743'0001ULL);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::vector<char> in = mutate(clean, rng);
    StateSnapshot s;
    std::string err;
    if (!from_json(std::string_view(in.data(), in.size()), s, &err)) {
      ++rejected;
      EXPECT_FALSE(err.empty());
      continue;
    }
    ++accepted;
    // Whatever loads re-serialises to a document that loads back to
    // the same bytes.
    const std::string once = to_json(s);
    StateSnapshot again;
    ASSERT_TRUE(from_json(once, again, &err)) << err;
    EXPECT_EQ(to_json(again), once);
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace storm::query
