// The one capture path of the cluster-building figure harnesses
// (DESIGN.md §3.2, §3.4, §3.5, §3.7).
//
// A Harness parses the command line once, in its constructor: the
// capture and budget flags every harness accepts (EXPERIMENTS.md has
// the table) plus the flags the harness declares. Anything else — an
// unknown flag, a missing or malformed value, an empty path — exits 2
// with a usage line. Per run, attach() turns on what the flags ask for
// and capture() takes what the run produced; finish() writes every
// requested artifact and returns the exit code:
//
//   bench::Harness h(argc, argv, "fig02");
//   ...per run:   h.attach(cluster);  ...run...  h.capture(cluster);
//   ...at exit:   return h.finish();
//
// Sweep harnesses evaluate points on a SweepRunner pool. A worker
// captures each run into the point's own Point — capture() only reads
// the cluster, so any thread may call it — and the in-order commit
// callback hands the Point to commit(), which only moves and merges.
// Merged metrics and series, the last run's trace and state, and the
// event totals therefore come out byte-identical for every --jobs
// value. A Point keeps the last run's spans and state as records, not
// text; finish() renders them once, from the run it writes.
//
// The query layer (storm.state.v1) is used only by harness.cpp, so no
// harness translation unit compiles its headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/timeseries.hpp"

namespace storm::core {
class Cluster;
}
namespace storm::query {
struct StateSnapshot;
}
namespace storm::telemetry {
struct TraceRecords;
}

namespace storm::bench {

/// A command-line flag the Harness accepts.
struct Flag {
  enum class Arg : std::uint8_t {
    None,    // a switch
    Path,    // an output path ("-" is stdout where the flag allows it)
    Rule,    // a watchdog rule; repeatable
    Number,  // a positive number
    Count,   // a positive integer, at most `max` when max > 0
  };
  std::string_view name;
  Arg arg = Arg::None;
  long max = 0;
};

/// `--jobs N`: SweepRunner worker threads (sweep harnesses only).
inline constexpr Flag kJobsFlag{"--jobs", Flag::Arg::Count, 1024};

/// What one or more runs produced. capture() fills it from a live
/// cluster on any thread; Harness::commit() folds it into the exports.
/// It refers to no run's Simulator, and holds the last run's records by
/// shared_ptr, whose deleter harness.cpp binds to the complete types.
struct Point {
  telemetry::MetricsRegistry metrics;  // merged over the runs
  telemetry::TimeSeriesStore series;   // merged over the runs
  std::shared_ptr<const telemetry::TraceRecords> trace;  // last run's
  std::shared_ptr<const query::StateSnapshot> state;     // last run's
  std::size_t trace_dropped = 0;       // spans lost, summed over the runs
  std::uint64_t runs = 0;
  std::uint64_t events = 0;            // engine events executed
  std::uint64_t node_events = 0;       // sum of run nodes x run events
  int nodes_max = 0;
};

class Harness {
 public:
  /// Parse argv. `bench` names the harness in storm.bench.v1; `extra`
  /// declares the harness's own flags.
  Harness(int argc, char** argv, const char* bench,
          std::initializer_list<Flag> extra = {});
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  bool fast() const { return has("--fast"); }
  /// `--jobs N`, or 1 when absent.
  int jobs() const;
  /// True when `flag` was given.
  bool has(std::string_view flag) const;
  /// The value of a Number/Count flag, or 0 when absent.
  double number(std::string_view flag) const;

  /// Turn on what the flags ask for: fabric metrics (--metrics), the
  /// windowed recorder (--timeseries or --watchdog) and causal tracing
  /// (--trace). Call before the run starts.
  void attach(core::Cluster& cluster) const;
  /// Add what `cluster`'s run produced to `point`. Reads the cluster
  /// only; safe on any thread, each worker with its own cluster.
  void capture(core::Cluster& cluster, Point& point) const;
  /// capture() + commit() for a serial harness.
  void capture(core::Cluster& cluster);
  /// Fold `point` into the exports. Call serially, in point order.
  void commit(Point&& point);
  /// A named scalar for the storm.bench.v1 "values" record (last write
  /// to a name wins). Call serially.
  void value(const std::string& name, double v) { values_[name] = v; }

  /// Write the artifacts in a fixed order — metrics, time series,
  /// trace, bench JSON, then the state snapshot last, because with
  /// `--state -` it is appended to stdout — and enforce the budgets.
  /// Returns the exit code: 1 if a watchdog fired under
  /// --watchdog-fail, a budget failed or a file could not be written.
  int finish();

 private:
  struct Given {
    const char* text = nullptr;
    double number = 0;
  };

  const char* path(std::string_view flag) const;
  bool ts_enabled() const;
  int write_metrics();
  int write_series() const;
  int write_trace() const;
  int write_bench() const;
  int write_state() const;

  const char* bench_;
  std::chrono::steady_clock::time_point t0_;
  std::map<std::string, Given, std::less<>> given_;
  telemetry::TimeSeriesOptions ts_opts_;
  Point total_;
  std::map<std::string, double> values_;
};

}  // namespace storm::bench
