#include "telemetry/timeseries.hpp"

#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace storm::telemetry {

namespace {

void put_i(std::string& out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out += buf;
}

void put_d(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out += buf;
}

const std::string kOverheadRatioName{kOverheadRatioGauge};
const std::string kBreachCounterName = "watchdog.breaches";

}  // namespace

// ---------------------------------------------------------------------------
// SeriesPoint

double SeriesPoint::quantile(double q) const {
  if (count <= 0) return 0.0;
  auto rank = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::int64_t cum = 0;
  for (const auto& b : buckets) {
    cum += b.delta;
    if (cum >= rank) {
      if (b.bucket <= 0) return 0.0;
      // Representative: midpoint of [lo, 2*lo) — monotone in the
      // bucket index, exact in double for every bucket.
      return 1.5 * static_cast<double>(Histogram::bucket_lo(b.bucket));
    }
  }
  // count says samples exist but the bucket deltas disagree; a
  // corrupted sketch — pin to the last bucket rather than invent data.
  if (buckets.empty()) return 0.0;
  return 1.5 * static_cast<double>(Histogram::bucket_lo(buckets.back().bucket));
}

// ---------------------------------------------------------------------------
// WatchdogRule parsing

bool parse_watchdog(std::string_view spec, WatchdogRule& out,
                    std::string* err) {
  const auto fail = [err](const std::string& m) {
    if (err != nullptr) *err = m;
    return false;
  };
  std::vector<std::string> tok;
  std::string cur;
  for (const char c : spec) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!cur.empty()) tok.push_back(std::move(cur)), cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) tok.push_back(std::move(cur));
  if (tok.size() < 3) {
    return fail("expected '<metric> [pNN|rate|delta|value] <cmp> "
                "<threshold> [for N]'");
  }
  out = WatchdogRule{};
  std::size_t i = 0;
  out.metric = tok[i++];
  // Optional selector.
  const std::string& sel = tok[i];
  if (sel == "rate") {
    out.select = WatchdogRule::Select::Rate;
    ++i;
  } else if (sel == "delta") {
    out.select = WatchdogRule::Select::Delta;
    ++i;
  } else if (sel == "value") {
    out.select = WatchdogRule::Select::Value;
    ++i;
  } else if (sel.size() >= 2 && sel[0] == 'p' &&
             sel.find_first_not_of("0123456789", 1) == std::string::npos) {
    const long nn = std::strtol(sel.c_str() + 1, nullptr, 10);
    if (nn < 1 || nn > 99) return fail("quantile must be p1..p99: " + sel);
    out.select = WatchdogRule::Select::Quantile;
    out.q = static_cast<double>(nn) / 100.0;
    ++i;
  }
  if (i >= tok.size()) return fail("missing comparator");
  const std::string& cmp = tok[i++];
  if (cmp == ">") {
    out.cmp = WatchdogRule::Cmp::GT;
  } else if (cmp == ">=") {
    out.cmp = WatchdogRule::Cmp::GE;
  } else if (cmp == "<") {
    out.cmp = WatchdogRule::Cmp::LT;
  } else if (cmp == "<=") {
    out.cmp = WatchdogRule::Cmp::LE;
  } else {
    return fail("unknown comparator '" + cmp + "' (use > >= < <=)");
  }
  if (i >= tok.size()) return fail("missing threshold");
  {
    char* end = nullptr;
    out.threshold = std::strtod(tok[i].c_str(), &end);
    if (end == tok[i].c_str() || *end != '\0') {
      return fail("threshold '" + tok[i] + "' is not a number");
    }
    ++i;
  }
  if (i < tok.size()) {
    if (tok[i] != "for") return fail("unexpected token '" + tok[i] + "'");
    ++i;
    if (i >= tok.size()) return fail("'for' needs a window count");
    char* end = nullptr;
    const long n = std::strtol(tok[i].c_str(), &end, 10);
    if (end == tok[i].c_str() || *end != '\0' || n < 1 || n > 1'000'000) {
      return fail("window count '" + tok[i] + "' must be in [1, 1e6]");
    }
    out.windows = static_cast<int>(n);
    ++i;
    if (i < tok.size() && (tok[i] == "windows" || tok[i] == "window")) ++i;
  }
  if (i != tok.size()) return fail("unexpected trailing tokens");
  out.spec = std::string(spec);
  return true;
}

// ---------------------------------------------------------------------------
// TimeSeriesStore

std::size_t TimeSeriesStore::total_points() const {
  std::size_t n = 0;
  for (const auto& [name, s] : series) n += s.points.size();
  return n;
}

void TimeSeriesStore::merge(const TimeSeriesStore& o) {
  if (window_ns == 0) window_ns = o.window_ns;
  if (o.last_window >= 0) {
    if (last_window < 0) {
      first_window = o.first_window;
      last_window = o.last_window;
    } else {
      first_window = std::min(first_window, o.first_window);
      last_window = std::max(last_window, o.last_window);
    }
  }
  end_ns = std::max(end_ns, o.end_ns);
  dropped_windows += o.dropped_windows;
  for (const auto& [name, os] : o.series) {
    auto it = series.find(name);
    if (it == series.end()) {
      series.emplace(name, os);
      continue;
    }
    Series& s = it->second;
    std::vector<SeriesPoint> merged;
    merged.reserve(s.points.size() + os.points.size());
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < s.points.size() || b < os.points.size()) {
      if (b >= os.points.size() ||
          (a < s.points.size() && s.points[a].window < os.points[b].window)) {
        merged.push_back(std::move(s.points[a++]));
      } else if (a >= s.points.size() ||
                 os.points[b].window < s.points[a].window) {
        merged.push_back(os.points[b++]);
      } else {
        // Same window: combine the way the cumulative registry would
        // have (counters/sketches add, gauge last-merge wins).
        SeriesPoint p = std::move(s.points[a++]);
        const SeriesPoint& q = os.points[b++];
        switch (s.kind) {
          case SeriesKind::Counter: p.delta += q.delta; break;
          case SeriesKind::Gauge: p.value = q.value; break;
          case SeriesKind::Histogram: {
            p.count += q.count;
            p.sum += q.sum;
            std::vector<SketchBucket> bk;
            bk.reserve(p.buckets.size() + q.buckets.size());
            std::size_t x = 0;
            std::size_t y = 0;
            while (x < p.buckets.size() || y < q.buckets.size()) {
              if (y >= q.buckets.size() ||
                  (x < p.buckets.size() &&
                   p.buckets[x].bucket < q.buckets[y].bucket)) {
                bk.push_back(p.buckets[x++]);
              } else if (x >= p.buckets.size() ||
                         q.buckets[y].bucket < p.buckets[x].bucket) {
                bk.push_back(q.buckets[y++]);
              } else {
                bk.push_back({p.buckets[x].bucket,
                              p.buckets[x].delta + q.buckets[y].delta});
                ++x;
                ++y;
              }
            }
            p.buckets = std::move(bk);
            break;
          }
        }
        merged.push_back(std::move(p));
      }
    }
    s.points = std::move(merged);
  }
  breaches.insert(breaches.end(), o.breaches.begin(), o.breaches.end());
}

std::string TimeSeriesStore::to_json() const {
  std::string o;
  o.reserve(4096 + 48 * total_points());
  o += "{\n  \"schema\": \"";
  o += kTimeSeriesSchema;
  o += "\",\n  \"window_ns\": ";
  put_i(o, window_ns);
  o += ",\n  \"first_window\": ";
  put_i(o, first_window);
  o += ",\n  \"last_window\": ";
  put_i(o, last_window);
  o += ",\n  \"end_ns\": ";
  put_i(o, end_ns);
  o += ",\n  \"dropped_windows\": ";
  put_i(o, dropped_windows);
  o += ",\n  \"series\": {";
  bool first = true;
  for (const auto& [name, s] : series) {
    o += first ? "\n" : ",\n";
    first = false;
    o += "    ";
    append_json_string(o, name);
    o += ": {\"kind\": \"";
    o += to_string(s.kind);
    o += "\", \"points\": [";
    bool fp = true;
    for (const auto& p : s.points) {
      o += fp ? "\n" : ",\n";
      fp = false;
      o += "      [";
      put_i(o, p.window);
      switch (s.kind) {
        case SeriesKind::Counter:
          o += ", ";
          put_i(o, p.delta);
          break;
        case SeriesKind::Gauge:
          o += ", ";
          put_d(o, p.value);
          break;
        case SeriesKind::Histogram: {
          o += ", ";
          put_i(o, p.count);
          o += ", ";
          put_i(o, p.sum);
          o += ", ";
          put_d(o, p.quantile(0.50));
          o += ", ";
          put_d(o, p.quantile(0.90));
          o += ", ";
          put_d(o, p.quantile(0.99));
          o += ", [";
          bool fb = true;
          for (const auto& b : p.buckets) {
            if (!fb) o += ", ";
            fb = false;
            o += "[";
            put_i(o, Histogram::bucket_lo(b.bucket));
            o += ", ";
            put_i(o, b.delta);
            o += "]";
          }
          o += "]";
          break;
        }
      }
      o += "]";
    }
    o += fp ? "]}" : "\n    ]}";
  }
  o += first ? "},\n" : "\n  },\n";
  o += "  \"breaches\": [";
  bool fb = true;
  for (const auto& b : breaches) {
    o += fb ? "\n" : ",\n";
    fb = false;
    o += "    {\"rule\": ";
    append_json_string(o, b.rule);
    o += ", \"metric\": ";
    append_json_string(o, b.metric);
    o += ", \"window\": ";
    put_i(o, b.window);
    o += ", \"t_ns\": ";
    put_i(o, b.t_ns);
    o += ", \"value\": ";
    put_d(o, b.value);
    o += ", \"threshold\": ";
    put_d(o, b.threshold);
    o += "}";
  }
  o += fb ? "]\n}\n" : "\n  ]\n}\n";
  return o;
}

double TimeSeriesStore::PointView::rate() const {
  const std::int64_t span = t_end_ns - t_start_ns;
  if (span <= 0) return 0.0;
  return static_cast<double>(point->delta) * 1e9 / static_cast<double>(span);
}

void TimeSeriesStore::visit_points(
    const std::function<bool(const PointView&)>& v) const {
  if (last_window < 0) return;
  struct Cursor {
    const std::string* name;
    const Series* s;
    std::size_t i = 0;
  };
  std::vector<Cursor> cs;
  cs.reserve(series.size());
  for (const auto& [name, s] : series) cs.push_back({&name, &s, 0});
  for (std::int64_t w = first_window; w <= last_window; ++w) {
    const std::int64_t t_start = w * window_ns;
    std::int64_t t_end = (w + 1) * window_ns;
    if (w == last_window && end_ns > t_start && end_ns < t_end) t_end = end_ns;
    for (auto& c : cs) {
      const auto& pts = c.s->points;
      while (c.i < pts.size() && pts[c.i].window < w) ++c.i;
      if (c.i >= pts.size() || pts[c.i].window != w) continue;
      PointView pv;
      pv.window = w;
      pv.t_start_ns = t_start;
      pv.t_end_ns = t_end;
      pv.name = c.name;
      pv.kind = c.s->kind;
      pv.point = &pts[c.i];
      if (!v(pv)) return;
      ++c.i;
    }
  }
}

// ---------------------------------------------------------------------------
// TimeSeriesRecorder

TimeSeriesRecorder::TimeSeriesRecorder(sim::Simulator& sim,
                                       MetricsRegistry& reg,
                                       TimeSeriesOptions opts)
    : sim_(sim), reg_(reg), opts_(std::move(opts)) {
  assert(opts_.window.raw_ns() > 0);
  store_.window_ns = opts_.window.raw_ns();
  streaks_.assign(opts_.watchdogs.size(), 0);
}

TimeSeriesRecorder::~TimeSeriesRecorder() { disarm(); }

void TimeSeriesRecorder::arm() {
  if (timer_ != sim::kInvalidPeriodic) return;
  // Window indices are absolute (w covers [w*W, (w+1)*W)), so the
  // recorder must start at t=0 — the same place every harness arms
  // its clusters.
  assert(sim_.now().raw_ns() == 0 && "timeseries windows align to t=0");
  timer_ = sim_.schedule_periodic(opts_.window, opts_.window,
                                  [this] { tick(); });
}

void TimeSeriesRecorder::disarm() {
  if (timer_ == sim::kInvalidPeriodic) return;
  sim_.cancel_periodic(timer_);
  timer_ = sim::kInvalidPeriodic;
}

void TimeSeriesRecorder::tick() {
  const std::int64_t w = next_window_;
  record_window(w, store_, /*commit=*/true);
  store_.last_window = w;
  store_.end_ns = sim_.now().raw_ns();
  ++next_window_;
  evaluate_watchdogs(w);
  prune();
}

bool TimeSeriesRecorder::record_window(std::int64_t w, TimeSeriesStore& out,
                                       bool commit) const {
  bool any = false;
  const auto add_point = [&](const std::string& name,
                             SeriesKind kind) -> SeriesPoint& {
    auto it = out.series.find(name);
    if (it == out.series.end()) {
      it = out.series.emplace(name, Series{kind, {}}).first;
    }
    auto& p = it->second.points.emplace_back();
    p.window = w;
    any = true;
    return p;
  };

  std::int64_t control_delta = 0;
  std::int64_t payload_delta = 0;
  reg_.for_each_counter([&](const std::string& name, const Counter& c) {
    const std::int64_t v = c.value();
    const auto it = last_counters_.find(name);
    const std::int64_t prev = it != last_counters_.end() ? it->second : 0;
    const std::int64_t d = v - prev;
    if (name == kControlBytesCounter) control_delta = d;
    if (name == kPayloadBytesCounter) payload_delta = d;
    if (d != 0) add_point(name, SeriesKind::Counter).delta = d;
    if (commit) {
      if (it != last_counters_.end()) {
        it->second = v;
      } else {
        last_counters_.emplace(name, v);
      }
    }
  });

  reg_.for_each_histogram([&](const std::string& name, const Histogram& h) {
    const auto it = last_hists_.find(name);
    const HistCum* prev = it != last_hists_.end() ? &it->second : nullptr;
    const std::int64_t dcount = h.count() - (prev != nullptr ? prev->count : 0);
    if (dcount > 0) {
      SeriesPoint& p = add_point(name, SeriesKind::Histogram);
      p.count = dcount;
      p.sum = h.sum() - (prev != nullptr ? prev->sum : 0);
      for (int i = 0; i < Histogram::kBuckets; ++i) {
        const std::int64_t pb =
            prev != nullptr && !prev->buckets.empty() ? prev->buckets[i] : 0;
        const std::int64_t bd = h.bucket_count(i) - pb;
        if (bd != 0) p.buckets.push_back({i, bd});
      }
    }
    if (commit) {
      HistCum& cum = it != last_hists_.end() ? it->second : last_hists_[name];
      cum.count = h.count();
      cum.sum = h.sum();
      cum.buckets.resize(Histogram::kBuckets);
      for (int i = 0; i < Histogram::kBuckets; ++i) {
        cum.buckets[i] = h.bucket_count(i);
      }
    }
  });

  reg_.for_each_gauge([&](const std::string& name, const Gauge& g) {
    // The cumulative overhead ratio is only computed at export time
    // (update_overhead_ratio); the windowed one is derived below from
    // the byte-counter deltas, so skip any registry gauge of that name.
    if (name == kOverheadRatioName) return;
    if (!g.ever_set()) return;
    const double v = g.value();
    const auto it = last_gauges_.find(name);
    if (it == last_gauges_.end() || it->second != v) {
      add_point(name, SeriesKind::Gauge).value = v;
    }
    if (commit) {
      if (it != last_gauges_.end()) {
        it->second = v;
      } else {
        last_gauges_.emplace(name, v);
      }
    }
  });

  if (control_delta + payload_delta > 0) {
    add_point(kOverheadRatioName, SeriesKind::Gauge).value =
        static_cast<double>(control_delta) /
        static_cast<double>(control_delta + payload_delta);
  }
  return any;
}

void TimeSeriesRecorder::evaluate_watchdogs(std::int64_t w) {
  const std::int64_t wn = store_.window_ns;
  for (std::size_t r = 0; r < opts_.watchdogs.size(); ++r) {
    const WatchdogRule& rule = opts_.watchdogs[r];
    WatchdogRule::Select sel = rule.select;
    if (sel == WatchdogRule::Select::Auto) {
      if (rule.metric == kOverheadRatioName ||
          reg_.find_gauge(rule.metric) != nullptr) {
        sel = WatchdogRule::Select::Value;
      } else if (reg_.find_histogram(rule.metric) != nullptr) {
        sel = WatchdogRule::Select::Quantile;
      } else if (reg_.find_counter(rule.metric) != nullptr) {
        sel = WatchdogRule::Select::Rate;
      }
    }
    const SeriesPoint* pt = nullptr;
    if (const auto it = store_.series.find(rule.metric);
        it != store_.series.end() && !it->second.points.empty() &&
        it->second.points.back().window == w) {
      pt = &it->second.points.back();
    }
    bool defined = false;
    double v = 0.0;
    switch (sel) {
      case WatchdogRule::Select::Rate:
      case WatchdogRule::Select::Delta:
        if (reg_.find_counter(rule.metric) != nullptr) {
          defined = true;
          const auto d =
              static_cast<double>(pt != nullptr ? pt->delta : 0);
          v = sel == WatchdogRule::Select::Delta
                  ? d
                  : d * 1e9 / static_cast<double>(wn);
        }
        break;
      case WatchdogRule::Select::Value:
        if (rule.metric == kOverheadRatioName) {
          // Derived ratio: defined only in windows that saw traffic.
          if (pt != nullptr) {
            defined = true;
            v = pt->value;
          }
        } else if (const Gauge* g = reg_.find_gauge(rule.metric);
                   g != nullptr && g->ever_set()) {
          defined = true;
          v = g->value();
        }
        break;
      case WatchdogRule::Select::Quantile:
        if (pt != nullptr && pt->count > 0) {
          defined = true;
          v = pt->quantile(rule.q);
        }
        break;
      case WatchdogRule::Select::Auto:
        break;  // metric unknown anywhere: undefined, streak resets
    }
    bool breach = false;
    if (defined) {
      switch (rule.cmp) {
        case WatchdogRule::Cmp::GT: breach = v > rule.threshold; break;
        case WatchdogRule::Cmp::GE: breach = v >= rule.threshold; break;
        case WatchdogRule::Cmp::LT: breach = v < rule.threshold; break;
        case WatchdogRule::Cmp::LE: breach = v <= rule.threshold; break;
      }
    }
    if (!breach) {
      streaks_[r] = 0;
      continue;
    }
    // Fire once per episode: when the streak first reaches `for N`.
    if (++streaks_[r] != rule.windows) continue;
    const std::int64_t t_ns = (w + 1) * wn;
    store_.breaches.push_back(
        {rule.spec, rule.metric, w, t_ns, v, rule.threshold});
    reg_.counter(kBreachCounterName).add(1);
  }
}

void TimeSeriesRecorder::prune() {
  if (opts_.retention == 0) return;
  const auto retention = static_cast<std::int64_t>(opts_.retention);
  if (store_.last_window - store_.first_window + 1 <= retention) return;
  const std::int64_t new_first = store_.last_window - retention + 1;
  for (auto& [name, s] : store_.series) {
    auto& pts = s.points;
    std::size_t k = 0;
    while (k < pts.size() && pts[k].window < new_first) ++k;
    if (k > 0) {
      pts.erase(pts.begin(),
                pts.begin() + static_cast<std::ptrdiff_t>(k));
    }
  }
  store_.dropped_windows += new_first - store_.first_window;
  store_.first_window = new_first;
}

TimeSeriesStore TimeSeriesRecorder::snapshot() const {
  TimeSeriesStore out = store_;
  out.window_ns = opts_.window.raw_ns();
  const std::int64_t now = sim_.now().raw_ns();
  if (now > next_window_ * out.window_ns) {
    // In-progress tail window, diffed without advancing the recorder.
    record_window(next_window_, out, /*commit=*/false);
    out.last_window = next_window_;
  }
  out.end_ns = now;
  return out;
}

}  // namespace storm::telemetry
