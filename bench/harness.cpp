#include "bench/harness.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "bench/common.hpp"
#include "query/snapshot.hpp"
#include "storm/cluster.hpp"
#include "telemetry/tracing.hpp"

namespace storm::bench {
namespace {

using Arg = Flag::Arg;

/// Flags every cluster-building harness accepts.
constexpr Flag kCommonFlags[] = {
    {"--fast"},
    {"--metrics", Arg::Path},
    {"--timeseries", Arg::Path},
    {"--timeseries-window", Arg::Number},
    {"--watchdog", Arg::Rule},
    {"--watchdog-fail"},
    {"--trace", Arg::Path},
    {"--state", Arg::Path},
    {"--bench-json", Arg::Path},
    {"--min-node-events-per-s", Arg::Number},
};

/// Job traces a `--trace` report decomposes; the rest are counted.
constexpr std::size_t kMaxTraceReports = 8;

const char* placeholder(Arg arg) {
  switch (arg) {
    case Arg::None: return "";
    case Arg::Path: return " <out.json>";
    case Arg::Rule: return " \"<rule>\"";
    case Arg::Number: return " <x>";
    case Arg::Count: return " <n>";
  }
  return "";
}

/// Parse the value of a Number/Count flag: a positive number, or, when
/// `whole`, a positive integer no larger than `max` (0: unbounded).
/// The whole of `text` must be consumed, so "abc", "5x", "", "0" and
/// "-1" are all rejected.
bool parse_positive(const char* text, bool whole, long max, double& out) {
  char* end = nullptr;
  errno = 0;
  const double v = whole ? static_cast<double>(std::strtol(text, &end, 10))
                         : std::strtod(text, &end);
  if (end == text || *end != '\0' || errno != 0 || !std::isfinite(v) ||
      v <= 0 || (max > 0 && v > static_cast<double>(max))) {
    return false;
  }
  out = v;
  return true;
}

/// Print "<prog>: <message>" and a usage line listing `flags`, then
/// exit 2.
[[noreturn, gnu::format(printf, 3, 4)]] void usage_error(
    const char* prog, const std::vector<Flag>& flags, const char* fmt, ...) {
  std::fprintf(stderr, "%s: ", prog);
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fprintf(stderr, "\nusage: %s", prog);
  for (const Flag& f : flags) {
    std::fprintf(stderr, " [%.*s%s]", static_cast<int>(f.name.size()),
                 f.name.data(), placeholder(f.arg));
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// Write `text` to `path`; report and return 1 when it cannot be
/// opened.
int write_file(const char* flag, const char* path, const std::string& text) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s\n", flag, path);
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return 0;
}

/// Print the critical-path report of up to kMaxTraceReports job
/// traces in `rec`, and count the rest.
void print_trace_report(const telemetry::TraceRecords& rec) {
  std::vector<std::uint64_t> traces;
  for (const auto& sp : rec.spans) {
    if (sp.trace >= 2 && !sp.open()) traces.push_back(sp.trace);
  }
  std::sort(traces.begin(), traces.end());
  traces.erase(std::unique(traces.begin(), traces.end()), traces.end());
  const std::size_t shown = std::min(traces.size(), kMaxTraceReports);
  for (std::size_t i = 0; i < shown; ++i) {
    const std::uint64_t t = traces[i];
    std::printf("trace: job %llu incarnation %llu critical path:\n",
                static_cast<unsigned long long>(
                    (t - 2) / telemetry::kIncarnationsPerJob),
                static_cast<unsigned long long>(
                    (t - 2) % telemetry::kIncarnationsPerJob));
    const std::string cp =
        telemetry::format_critical_path(telemetry::analyze_launch(rec, t));
    std::fputs(cp.c_str(), stdout);
  }
  if (traces.size() > shown) {
    std::printf("trace: ... and %zu more job traces\n", traces.size() - shown);
  }
}

}  // namespace

Harness::Harness(int argc, char** argv, const char* bench,
                 std::initializer_list<Flag> extra)
    : bench_(bench), t0_(std::chrono::steady_clock::now()) {
  std::vector<Flag> flags(std::begin(kCommonFlags), std::end(kCommonFlags));
  flags.insert(flags.end(), extra.begin(), extra.end());
  const char* prog = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string_view name = argv[i];
    const auto f = std::find_if(flags.begin(), flags.end(),
                                [&](const Flag& x) { return x.name == name; });
    if (f == flags.end()) {
      usage_error(prog, flags, "unknown flag '%s'", argv[i]);
    }
    Given g;
    if (f->arg != Arg::None) {
      if (i + 1 >= argc) {
        usage_error(prog, flags, "%s requires a value (%s%s)", argv[i],
                    argv[i], placeholder(f->arg));
      }
      g.text = argv[++i];
    }
    switch (f->arg) {
      case Arg::None:
        break;
      case Arg::Path:
        if (g.text[0] == '\0') {
          usage_error(prog, flags, "%s requires a non-empty path", argv[i - 1]);
        }
        break;
      case Arg::Rule: {
        telemetry::WatchdogRule rule;
        std::string err;
        if (!telemetry::parse_watchdog(g.text, rule, &err)) {
          usage_error(prog, flags, "%s '%s': %s", argv[i - 1], g.text,
                      err.c_str());
        }
        ts_opts_.watchdogs.push_back(std::move(rule));
        break;
      }
      case Arg::Number:
      case Arg::Count:
        if (!parse_positive(g.text, f->arg == Arg::Count, f->max, g.number)) {
          std::string what = f->arg == Arg::Count ? "integer" : "number";
          if (f->max > 0) what += " <= " + std::to_string(f->max);
          usage_error(prog, flags, "%s: '%s' is not a positive %s",
                      argv[i - 1], g.text, what.c_str());
        }
        break;
    }
    given_.insert_or_assign(std::string(name), g);
  }
  if (const double ms = number("--timeseries-window"); ms > 0) {
    ts_opts_.window = sim::SimTime::millis(ms);
  }
}

int Harness::jobs() const {
  const double n = number("--jobs");
  return n > 0 ? static_cast<int>(n) : 1;
}

bool Harness::has(std::string_view flag) const {
  return given_.find(flag) != given_.end();
}

double Harness::number(std::string_view flag) const {
  const auto it = given_.find(flag);
  return it == given_.end() ? 0.0 : it->second.number;
}

const char* Harness::path(std::string_view flag) const {
  const auto it = given_.find(flag);
  return it == given_.end() ? nullptr : it->second.text;
}

bool Harness::ts_enabled() const {
  return has("--timeseries") || !ts_opts_.watchdogs.empty();
}

void Harness::attach(core::Cluster& cluster) const {
  if (has("--metrics")) cluster.enable_fabric_metrics();
  if (ts_enabled()) cluster.enable_timeseries(ts_opts_);
  if (has("--trace")) cluster.enable_tracing();
}

void Harness::capture(core::Cluster& cluster, Point& p) const {
  if (has("--metrics")) p.metrics.merge(cluster.metrics());
  if (ts_enabled()) p.series.merge(cluster.timeseries()->snapshot());
  // This run's records replace the previous run's, which go first so
  // that a point never holds two runs' copies.
  if (has("--trace")) {
    const telemetry::TraceRecords& rec = cluster.tracer()->buffer().records();
    p.trace.reset();
    p.trace = std::make_shared<const telemetry::TraceRecords>(rec);
    p.trace_dropped += rec.dropped;
  }
  if (has("--state")) {
    p.state.reset();
    p.state = std::make_shared<query::StateSnapshot>(query::capture(cluster));
  }
  const int nodes = cluster.config().nodes;
  const std::uint64_t events = cluster.sim().events_executed();
  ++p.runs;
  p.events += events;
  p.node_events += static_cast<std::uint64_t>(nodes) * events;
  p.nodes_max = std::max(p.nodes_max, nodes);
}

void Harness::capture(core::Cluster& cluster) {
  capture(cluster, total_);  // the same as committing a fresh Point
}

void Harness::commit(Point&& p) {
  total_.metrics.merge(p.metrics);
  total_.series.merge(p.series);
  if (p.trace) total_.trace = std::move(p.trace);
  if (p.state) total_.state = std::move(p.state);
  total_.trace_dropped += p.trace_dropped;
  total_.runs += p.runs;
  total_.events += p.events;
  total_.node_events += p.node_events;
  total_.nodes_max = std::max(total_.nodes_max, p.nodes_max);
}

int Harness::finish() {
  int rc = write_metrics();
  rc |= write_series();
  rc |= write_trace();
  rc |= write_bench();
  rc |= write_state();
  return rc;
}

/// `--metrics`: the merged storm.metrics.v1 snapshot, plus the
/// control-plane overhead headline (the paper claims resource
/// management costs ~1% of the system; see EXPERIMENTS.md).
int Harness::write_metrics() {
  const char* out = path("--metrics");
  if (out == nullptr) return 0;
  telemetry::MetricsRegistry& m = total_.metrics;
  telemetry::update_overhead_ratio(m);
  std::string json = m.to_json();
  // Splice the process record in right after the schema line so the
  // paper-metric series themselves stay byte-identical. Golden and
  // parallel-sweep comparisons strip this one line (RSS is the only
  // nondeterministic field in the file).
  static constexpr std::string_view kSchemaLine =
      "  \"schema\": \"storm.metrics.v1\",\n";
  if (const auto pos = json.find(kSchemaLine); pos != std::string::npos) {
    char proc[64];
    std::snprintf(proc, sizeof proc, "  \"proc\": {\"peak_rss_mb\": %.1f},\n",
                  peak_rss_mb());
    json.insert(pos + kSchemaLine.size(), proc);
  }
  const int rc = write_file("--metrics", out, json);
  if (rc == 0) {
    std::printf("\nmetrics: wrote %zu series to %s\n", m.size(), out);
    if (const auto* g = m.find_gauge(telemetry::kOverheadRatioGauge);
        g != nullptr && g->ever_set()) {
      std::printf("metrics: control-plane overhead %.3f%% of fabric bytes\n",
                  g->value() * 100.0);
    }
  }
  // stderr, not stdout: golden comparisons cover stdout + the JSON.
  std::fprintf(stderr, "metrics: peak RSS %.1f MB\n", peak_rss_mb());
  return rc;
}

/// `--timeseries` and the watchdog verdicts.
int Harness::write_series() const {
  const telemetry::TimeSeriesStore& s = total_.series;
  int rc = 0;
  if (const char* out = path("--timeseries"); out != nullptr) {
    rc = write_file("--timeseries", out, s.to_json());
    if (rc == 0) {
      std::printf("\ntimeseries: wrote %zu points across %zu series to %s\n",
                  s.total_points(), s.series.size(), out);
    }
  }
  if (!ts_opts_.watchdogs.empty()) {
    std::printf("watchdog: %zu breach%s\n", s.breaches.size(),
                s.breaches.size() == 1 ? "" : "es");
    for (const auto& b : s.breaches) {
      std::printf("watchdog: BREACH [%s] window %lld value %.6g "
                  "(threshold %.6g)\n", b.rule.c_str(),
                  static_cast<long long>(b.window), b.value, b.threshold);
    }
  }
  if (has("--watchdog-fail") && !s.breaches.empty()) {
    std::fprintf(stderr, "watchdog: FAIL %zu breach(es) with "
                 "--watchdog-fail\n", s.breaches.size());
    rc = 1;
  }
  return rc;
}

/// `--trace`: the last captured run's timeline, and its critical-path
/// report on stdout. Spans lost in any run are counted on stderr, which
/// golden comparisons do not cover.
int Harness::write_trace() const {
  const char* out = path("--trace");
  if (out == nullptr || !total_.trace) return 0;
  if (total_.trace_dropped > 0) {
    std::fprintf(stderr, "trace: buffer full, %zu spans dropped over %llu "
                 "runs\n", total_.trace_dropped,
                 static_cast<unsigned long long>(total_.runs));
  }
  const telemetry::TraceRecords& rec = *total_.trace;
  if (write_file("--trace", out, telemetry::to_perfetto_json(rec)) != 0) {
    return 1;
  }
  std::printf("\ntrace: wrote %zu spans to %s (load in ui.perfetto.dev)\n",
              rec.spans.size(), out);
  print_trace_report(rec);
  return 0;
}

/// `--bench-json`: a storm.bench.v1 health record of the harness run
/// itself — wall time, peak RSS, engine-event totals, the nodes x
/// events/s throughput and the harness's named values — and the
/// budgets: `--min-node-events-per-s` for every harness, and
/// `--max-rss-mb` / `--max-wall-s` where the harness declares them.
int Harness::write_bench() const {
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0_)
                            .count();
  const double rss_mb = peak_rss_mb();
  const double per_s =
      wall_s > 0 ? static_cast<double>(total_.node_events) / wall_s : 0.0;
  int rc = 0;
  if (const char* out = path("--bench-json"); out != nullptr) {
    std::string json = "{\n  \"schema\": \"storm.bench.v1\",\n";
    char line[160];
    std::snprintf(line, sizeof line,
                  "  \"bench\": \"%s\",\n  \"fast\": %s,\n  \"runs\": %llu,\n"
                  "  \"events\": %llu,\n  \"nodes_max\": %d,\n",
                  bench_, fast() ? "true" : "false",
                  static_cast<unsigned long long>(total_.runs),
                  static_cast<unsigned long long>(total_.events),
                  total_.nodes_max);
    json += line;
    std::snprintf(line, sizeof line,
                  "  \"node_events\": %llu,\n  \"node_events_per_s\": %.1f,\n",
                  static_cast<unsigned long long>(total_.node_events), per_s);
    json += line;
    if (has("--trace")) {
      std::snprintf(line, sizeof line, "  \"trace_dropped\": %zu,\n",
                    total_.trace_dropped);
      json += line;
    }
    if (!values_.empty()) {
      json += "  \"values\": {\n";
      std::size_t i = 0;
      for (const auto& [name, v] : values_) {
        std::snprintf(line, sizeof line, "    \"%s\": %.3f%s\n", name.c_str(),
                      v, ++i < values_.size() ? "," : "");
        json += line;
      }
      json += "  },\n";
    }
    std::snprintf(line, sizeof line,
                  "  \"wall_s\": %.3f,\n  \"peak_rss_mb\": %.1f\n}\n", wall_s,
                  rss_mb);
    json += line;
    rc = write_file("--bench-json", out, json);
    if (rc == 0) {
      std::fprintf(stderr, "bench-json: wrote %s (%.3g node-events/s)\n", out,
                   per_s);
    }
  }
  const auto check = [&](const char* flag, double got, bool is_max) {
    const double budget = number(flag);
    if (budget > 0 && (is_max ? got > budget : got < budget)) {
      std::fprintf(stderr, "%s: FAIL %s %.3g, measured %.3g\n", bench_, flag,
                   budget, got);
      rc = 1;
    }
  };
  check("--min-node-events-per-s", per_s, false);
  check("--max-rss-mb", rss_mb, true);
  check("--max-wall-s", wall_s, true);
  return rc;
}

/// `--state`: the last captured run's storm.state.v1 snapshot; with
/// `-` it is appended to stdout, where statectl finds it at the end of
/// a piped run.
int Harness::write_state() const {
  const char* out = path("--state");
  if (out == nullptr || !total_.state) return 0;
  const std::string json = query::to_json(*total_.state);
  if (std::string_view(out) == "-") {
    std::fwrite(json.data(), 1, json.size(), stdout);
    return 0;
  }
  if (write_file("--state", out, json) != 0) return 1;
  // stderr, not stdout: golden comparisons cover stdout.
  std::fprintf(stderr, "state: wrote %s snapshot to %s\n",
               std::string(query::kStateSchema).c_str(), out);
  return 0;
}

}  // namespace storm::bench
