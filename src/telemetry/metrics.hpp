// Cluster-wide telemetry: a registry of named counters, gauges and
// log2-bucketed histograms, all driven by *simulated* time, so two
// same-seed runs produce byte-identical metrics (ROADMAP "Metrics
// aggregation").
//
// The registry is deliberately header-only and depends only on
// `src/sim`, so every layer — bench harnesses included — can hold one
// without linking a new library. Hot paths should resolve their
// instruments once (`Counter& c = reg.counter("ft.chunks")`) and keep
// the reference: entries are node-based, so references stay valid for
// the registry's lifetime.
//
// Snapshots export two ways:
//   * `print(FILE*)` — a human-readable table for examples and
//     interactive runs;
//   * `to_json()` — the stable `storm.metrics.v1` schema consumed by
//     the bench harnesses' `--metrics <out.json>` flag and CI.
#pragma once

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace storm::telemetry {

/// Monotonic event count (messages delivered, chunks written, ...).
class Counter {
 public:
  void add(std::int64_t d = 1) { value_ += d; }
  std::int64_t value() const { return value_; }
  void merge(const Counter& o) { value_ += o.value_; }

 private:
  std::int64_t value_ = 0;
};

/// Point-in-time level (occupancy, queue depth). `set_max` keeps a
/// high-water mark instead of the last sample.
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    set_ = true;
  }
  void set_max(double v) {
    if (!set_ || v > value_) set(v);
  }
  double value() const { return value_; }
  bool ever_set() const { return set_; }
  /// Merge semantics: the other registry is the *later* run, so its
  /// last sample wins (high-water gauges should re-merge via set_max
  /// by the caller if cross-run maxima are wanted).
  void merge(const Gauge& o) {
    if (o.set_) set(o.value_);
  }

 private:
  double value_ = 0.0;
  bool set_ = false;
};

/// Log2-bucketed latency/size histogram over non-negative int64
/// samples (typically nanoseconds of simulated time).
///
/// Bucket 0 holds v <= 0; bucket i (1 <= i <= 48) holds
/// [2^(i-1), 2^i); bucket 49 is the overflow bucket for v >= 2^48
/// (~3.3 simulated days in ns — far beyond any experiment).
class Histogram {
 public:
  static constexpr int kBuckets = 50;
  static constexpr int kOverflowBucket = kBuckets - 1;

  static constexpr int bucket_of(std::int64_t v) {
    if (v <= 0) return 0;
    const int w = std::bit_width(static_cast<std::uint64_t>(v));
    return w < kOverflowBucket ? w : kOverflowBucket;
  }
  /// Smallest value landing in bucket `i`.
  static constexpr std::int64_t bucket_lo(int i) {
    if (i <= 0) return 0;
    return std::int64_t{1} << (i - 1);
  }

  void record(std::int64_t v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    min_ = count_ == 1 ? v : std::min(min_, v);
    max_ = count_ == 1 ? v : std::max(max_, v);
  }
  void record(sim::SimTime t) { record(t.raw_ns()); }

  std::int64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return count_ ? min_ : 0; }
  std::int64_t max() const { return count_ ? max_ : 0; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  std::int64_t bucket_count(int i) const { return buckets_[i]; }

  void merge(const Histogram& o) {
    for (int i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    if (o.count_ == 0) return;
    min_ = count_ ? std::min(min_, o.min_) : o.min_;
    max_ = count_ ? std::max(max_, o.max_) : o.max_;
    count_ += o.count_;
    sum_ += o.sum_;
  }

 private:
  std::int64_t buckets_[kBuckets] = {};
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// RAII span: records the simulated time between construction and
/// destruction into a histogram (pipeline-stage timing).
class Span {
 public:
  Span(sim::Simulator& sim, Histogram& h)
      : sim_(sim), hist_(h), start_(sim.now()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { hist_.record(sim_.now() - start_); }

 private:
  sim::Simulator& sim_;
  Histogram& hist_;
  sim::SimTime start_;
};

// Shared metric names (written by fabric MetricsAggregator, read by
// update_overhead_ratio and the bench exporters).
inline constexpr std::string_view kControlBytesCounter =
    "fabric.bytes.control";
inline constexpr std::string_view kPayloadBytesCounter =
    "fabric.bytes.payload";
inline constexpr std::string_view kOverheadRatioGauge =
    "fabric.overhead.ratio";

class MetricsRegistry {
 public:
  Counter& counter(std::string_view name) { return find(counters_, name); }
  Gauge& gauge(std::string_view name) { return find(gauges_, name); }
  Histogram& histogram(std::string_view name) {
    return find(histograms_, name);
  }

  const Counter* find_counter(std::string_view name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
  }
  const Gauge* find_gauge(std::string_view name) const {
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : &it->second;
  }
  const Histogram* find_histogram(std::string_view name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // --- enumeration (name-sorted, deterministic) ---------------------------
  // The query layer's `metrics` table scans through these; iteration
  // order is the registry's map order (lexicographic by name).

  void for_each_counter(
      const std::function<void(const std::string&, const Counter&)>& f) const {
    for (const auto& [k, v] : counters_) f(k, v);
  }
  void for_each_gauge(
      const std::function<void(const std::string&, const Gauge&)>& f) const {
    for (const auto& [k, v] : gauges_) f(k, v);
  }
  void for_each_histogram(
      const std::function<void(const std::string&, const Histogram&)>& f)
      const {
    for (const auto& [k, v] : histograms_) f(k, v);
  }

  /// Fold another registry into this one (counters add, histograms
  /// add, gauges keep the other run's last sample). Used by the bench
  /// harnesses to aggregate the per-run registries of many Clusters.
  void merge(const MetricsRegistry& o) {
    for (const auto& [k, v] : o.counters_) counter(k).merge(v);
    for (const auto& [k, v] : o.gauges_) gauge(k).merge(v);
    for (const auto& [k, v] : o.histograms_) histogram(k).merge(v);
  }

  void clear() {
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
  }

  // --- export ------------------------------------------------------------

  /// Stable JSON snapshot (schema `storm.metrics.v1`): entries sorted
  /// by name, integers exact, doubles via %.10g — so two same-seed
  /// runs serialise byte-identically.
  std::string to_json() const {
    std::string out = "{\n  \"schema\": \"storm.metrics.v1\",\n";
    out += "  \"counters\": {";
    const char* sep = "";
    for (const auto& [k, v] : counters_) {
      out += sep;
      out += "\n    \"" + k + "\": " + std::to_string(v.value());
      sep = ",";
    }
    out += counters_.empty() ? "},\n" : "\n  },\n";
    out += "  \"gauges\": {";
    sep = "";
    char buf[64];
    for (const auto& [k, v] : gauges_) {
      out += sep;
      std::snprintf(buf, sizeof(buf), "%.10g", v.value());
      out += "\n    \"" + k + "\": " + buf;
      sep = ",";
    }
    out += gauges_.empty() ? "},\n" : "\n  },\n";
    out += "  \"histograms\": {";
    sep = "";
    for (const auto& [k, v] : histograms_) {
      out += sep;
      out += "\n    \"" + k + "\": {\"count\": " + std::to_string(v.count()) +
             ", \"sum\": " + std::to_string(v.sum()) +
             ", \"min\": " + std::to_string(v.min()) +
             ", \"max\": " + std::to_string(v.max()) + ", \"buckets\": [";
      const char* bsep = "";
      for (int i = 0; i < Histogram::kBuckets; ++i) {
        if (v.bucket_count(i) == 0) continue;
        out += bsep;
        // Separate appends: chained operator+ trips GCC's -Wrestrict
        // false positive (PR105651) under -O3 in some TUs.
        out += "[";
        out += std::to_string(Histogram::bucket_lo(i));
        out += ", ";
        out += std::to_string(v.bucket_count(i));
        out += "]";
        bsep = ", ";
      }
      out += "]}";
      sep = ",";
    }
    out += histograms_.empty() ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
  }

  /// Human-readable table (histogram times rendered in microseconds).
  void print(std::FILE* f = stdout) const {
    if (!counters_.empty()) {
      std::fprintf(f, "%-36s %14s\n", "counter", "value");
      for (const auto& [k, v] : counters_) {
        std::fprintf(f, "%-36s %14" PRId64 "\n", k.c_str(), v.value());
      }
    }
    if (!gauges_.empty()) {
      std::fprintf(f, "%-36s %14s\n", "gauge", "value");
      for (const auto& [k, v] : gauges_) {
        std::fprintf(f, "%-36s %14.4f\n", k.c_str(), v.value());
      }
    }
    if (!histograms_.empty()) {
      std::fprintf(f, "%-36s %10s %12s %12s %12s\n", "histogram (us)", "count",
                   "mean", "min", "max");
      for (const auto& [k, v] : histograms_) {
        std::fprintf(f, "%-36s %10" PRId64 " %12.1f %12.1f %12.1f\n",
                     k.c_str(), v.count(), v.mean() * 1e-3,
                     static_cast<double>(v.min()) * 1e-3,
                     static_cast<double>(v.max()) * 1e-3);
      }
    }
  }

 private:
  template <typename T>
  static T& find(std::map<std::string, T, std::less<>>& m,
                 std::string_view name) {
    const auto it = m.find(name);
    if (it != m.end()) return it->second;
    return m.emplace(std::string(name), T{}).first->second;
  }

  // node-based maps: references returned by counter()/gauge()/
  // histogram() stay valid across later insertions.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Recompute `fabric.overhead.ratio` = control / (control + payload)
/// from the byte counters the fabric MetricsAggregator maintains.
/// Call after merging registries (ratios do not merge; bytes do).
inline void update_overhead_ratio(MetricsRegistry& reg) {
  const Counter* control = reg.find_counter(kControlBytesCounter);
  const Counter* payload = reg.find_counter(kPayloadBytesCounter);
  if (control == nullptr && payload == nullptr) return;
  const double c = control ? static_cast<double>(control->value()) : 0.0;
  const double p = payload ? static_cast<double>(payload->value()) : 0.0;
  reg.gauge(kOverheadRatioGauge).set(c + p > 0.0 ? c / (c + p) : 0.0);
}

/// Appends `s` to `out` as a quoted JSON string. Quote, backslash,
/// newline, carriage return and tab get their two-character escapes,
/// other control bytes `\u00XX`. Shared by the `storm.*.v1` writers
/// that emit names.
inline void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace storm::telemetry
