// Time-resolved telemetry plane (DESIGN.md §3.7): a deterministic
// windowed time-series recorder layered on MetricsRegistry.
//
// The cumulative aggregates in storm.metrics.v1 integrate the whole
// run away; the questions the ROADMAP asks (saturation knees, overhead
// transients, failover gaps) need *time-resolved* data. The
// TimeSeriesRecorder ticks on a configurable simulated-time window
// (default 10 ms), riding a `schedule_periodic` cohort so it stays off
// the hot path, and on each tick diffs the registry against the
// previous tick:
//
//   counters   -> sparse per-window deltas (rate = delta / window)
//   histograms -> per-window quantile sketches: the log2 bucket deltas
//                 of the window, from which p50/p90/p99 are derived
//                 deterministically at read time
//   gauges     -> value sampled at window end, recorded on change
//
// Windows live in a bounded flight-recorder ring (`retention`
// windows); older windows are pruned and counted in
// `dropped_windows`. A WatchdogRegistry of threshold/SLO rules (e.g.
// "fabric.overhead.ratio > 0.01 for 3", "mm.failover.gap_ns p99 >
// 5e7") is evaluated once per completed window and fires
// deterministic breach events (a `breaches` record + the
// `watchdog.breaches` counter) that `--watchdog-fail` can turn into a
// nonzero harness exit.
//
// Determinism contract: everything is keyed to simulated time and the
// registry's ordered maps, so same-seed runs serialise byte-identical
// storm.timeseries.v1 documents. `snapshot()` is a pure read (the
// in-progress tail window is diffed at call time without touching
// recorder state), so parallel sweep workers can snapshot per-point
// stores that the serial commit path merges in index order (the
// bench::Harness capture/commit split) — keeping the export
// byte-identical across `--jobs N`.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace storm::telemetry {

inline constexpr std::string_view kTimeSeriesSchema = "storm.timeseries.v1";

enum class SeriesKind : std::uint8_t { Counter, Gauge, Histogram };

constexpr std::string_view to_string(SeriesKind k) {
  switch (k) {
    case SeriesKind::Counter: return "counter";
    case SeriesKind::Gauge: return "gauge";
    case SeriesKind::Histogram: return "histogram";
  }
  return "?";
}

/// One nonzero log2 bucket of a window's histogram sketch.
struct SketchBucket {
  int bucket = 0;            // Histogram bucket index (see bucket_lo)
  std::int64_t delta = 0;    // samples landing in this bucket this window
};

/// One recorded window of one series. Which fields are meaningful
/// depends on the series kind; unused fields stay zero so merge and
/// serialisation are uniform.
struct SeriesPoint {
  std::int64_t window = 0;   // absolute window index (t / window_ns)
  std::int64_t delta = 0;    // counter: increment over the window
  double value = 0.0;        // gauge: value at window end
  std::int64_t count = 0;    // histogram: samples recorded this window
  std::int64_t sum = 0;      // histogram: sum of samples this window
  std::vector<SketchBucket> buckets;  // histogram: sorted, nonzero only

  /// Deterministic bucket-resolution quantile (q in [0,1]) of this
  /// window's sketch: the representative value (1.5x bucket_lo) of the
  /// bucket holding the ceil(q*count)-th sample. 0 when count == 0.
  double quantile(double q) const;
};

struct Series {
  SeriesKind kind = SeriesKind::Counter;
  std::vector<SeriesPoint> points;  // sorted by window, sparse
};

/// One threshold/SLO rule. Text form (see parse_watchdog):
///   <metric> [pNN | rate | delta | value] <cmp> <threshold> [for N]
struct WatchdogRule {
  enum class Select : std::uint8_t {
    Auto,      // gauge -> value, histogram -> p99, counter -> rate
    Rate,      // counter delta / window, per second
    Delta,     // raw counter delta per window
    Value,     // gauge value at window end
    Quantile,  // histogram pNN of the window sketch
  };
  enum class Cmp : std::uint8_t { GT, GE, LT, LE };

  std::string spec;     // original text, used as the rule's display name
  std::string metric;
  Select select = Select::Auto;
  double q = 0.99;      // Quantile only
  Cmp cmp = Cmp::GT;
  double threshold = 0.0;
  int windows = 1;      // consecutive breaching windows required to fire
};

/// Parse a rule spec ("fabric.overhead.ratio > 0.01 for 3",
/// "mm.failover.gap_ns p99 > 5e7"). Returns false and sets *err on a
/// malformed spec.
bool parse_watchdog(std::string_view spec, WatchdogRule& out,
                    std::string* err = nullptr);

/// A fired rule: the first window of a breach episode whose
/// consecutive-window streak reached the rule's `for N`.
struct WatchdogBreach {
  std::string rule;     // the rule's spec text
  std::string metric;
  std::int64_t window = 0;
  std::int64_t t_ns = 0;      // end of the breaching window
  double value = 0.0;         // observed value that window
  double threshold = 0.0;
};

struct TimeSeriesOptions {
  sim::SimTime window = sim::SimTime::ms(10);
  std::size_t retention = 4096;  // flight-recorder ring, in windows
  std::vector<WatchdogRule> watchdogs;
};

/// The recorded document: per-series sparse window points plus fired
/// breaches. Value type — copyable, mergeable, serialisable — so it
/// can cross the SweepRunner capture/commit boundary.
class TimeSeriesStore {
 public:
  std::int64_t window_ns = 0;
  std::int64_t first_window = 0;    // earliest retained window
  std::int64_t last_window = -1;    // -1: nothing recorded yet
  std::int64_t end_ns = 0;          // sim time the store was cut at
  std::int64_t dropped_windows = 0;
  std::map<std::string, Series, std::less<>> series;
  std::vector<WatchdogBreach> breaches;

  bool empty() const { return series.empty() && breaches.empty(); }
  std::size_t total_points() const;

  /// Exact merge: points align on absolute window index (counter and
  /// sketch deltas add, gauge last-wins mirroring Gauge::merge),
  /// breaches append. Merging per-run stores in commit order yields
  /// the same bytes as one serial pass — the --jobs N contract.
  void merge(const TimeSeriesStore& o);

  /// storm.timeseries.v1 (sorted, fixed float format; byte-identical
  /// for same-seed runs).
  std::string to_json() const;

  /// Everything a visitor needs to turn one point into a row.
  struct PointView {
    std::int64_t window = 0;
    std::int64_t t_start_ns = 0;
    std::int64_t t_end_ns = 0;  // tail window is clamped to end_ns
    const std::string* name = nullptr;
    SeriesKind kind = SeriesKind::Counter;
    const SeriesPoint* point = nullptr;
    double rate() const;  // counter: delta per second of window actually covered
  };

  /// Visit every point in (window, series-name) order — time-major,
  /// the order the query table exposes. Return false to stop early.
  void visit_points(const std::function<bool(const PointView&)>& v) const;
};

/// Ticks once per window over a live registry; owns the diff state and
/// the retention ring. See the file comment for semantics.
class TimeSeriesRecorder {
 public:
  /// `sim` and `reg` must outlive the recorder. Call arm() to start
  /// the periodic tick (kept separate so a cluster can construct the
  /// recorder before its fabric exists).
  TimeSeriesRecorder(sim::Simulator& sim, MetricsRegistry& reg,
                     TimeSeriesOptions opts);
  ~TimeSeriesRecorder();
  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  void arm();     // idempotent; first tick at t = now + window
  void disarm();  // idempotent

  const TimeSeriesOptions& options() const { return opts_; }
  std::int64_t windows_recorded() const { return next_window_; }
  std::size_t breach_count() const { return store_.breaches.size(); }

  /// Pure read: the retained store plus an in-progress tail window
  /// diffed at call time (watchdogs are not evaluated on the partial
  /// tail). Safe to call from sweep workers while the run is live.
  TimeSeriesStore snapshot() const;

 private:
  struct HistCum {
    std::int64_t count = 0;
    std::int64_t sum = 0;
    std::vector<std::int64_t> buckets;  // kBuckets wide once touched
  };

  void tick();
  /// Diff `reg_` against the cumulative maps into `out` as window `w`.
  /// When `commit` is true the cumulative maps advance; snapshot()
  /// calls it with commit=false for the tail. Returns true when at
  /// least one point was recorded.
  bool record_window(std::int64_t w, TimeSeriesStore& out, bool commit) const;
  void evaluate_watchdogs(std::int64_t w);
  void prune();

  sim::Simulator& sim_;
  MetricsRegistry& reg_;
  TimeSeriesOptions opts_;
  sim::PeriodicId timer_ = sim::kInvalidPeriodic;
  std::int64_t next_window_ = 0;  // index the next tick will record
  TimeSeriesStore store_;

  // Cumulative values as of the last committed tick.
  mutable std::map<std::string, std::int64_t, std::less<>> last_counters_;
  mutable std::map<std::string, HistCum, std::less<>> last_hists_;
  mutable std::map<std::string, double, std::less<>> last_gauges_;

  // Per-rule consecutive-breach streaks (parallel to opts_.watchdogs).
  std::vector<int> streaks_;
};

}  // namespace storm::telemetry
