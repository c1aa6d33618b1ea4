#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace srsr::obs {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<f64> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1) {
  SRSR_CHECK(!bounds_.empty(), "Histogram: needs at least one bucket bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    SRSR_CHECK(bounds_[i - 1] < bounds_[i],
               "Histogram: bucket bounds must be strictly increasing");
}

std::vector<u64> Histogram::counts() const {
  std::vector<u64> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i)
    out[i] = counts_[i].load(std::memory_order_relaxed);
  return out;
}

f64 Histogram::mean() const {
  const u64 n = count();
  return n == 0 ? 0.0 : sum() / static_cast<f64>(n);
}

std::vector<f64> log_spaced_buckets(f64 lo, f64 hi, u32 per_decade) {
  SRSR_CHECK(std::isfinite(lo) && std::isfinite(hi) && lo > 0.0 && hi > lo,
             "log_spaced_buckets: need 0 < lo < hi, both finite");
  SRSR_CHECK(per_decade > 0, "log_spaced_buckets: per_decade must be positive");
  const f64 step = std::pow(10.0, 1.0 / static_cast<f64>(per_decade));
  std::vector<f64> out;
  // Generate multiplicatively from lo; the epsilon keeps the top edge
  // itself in the list despite accumulated rounding.
  for (f64 b = lo; b < hi * (1.0 + 1e-12); b *= step) out.push_back(b);
  if (out.back() < hi) out.push_back(hi);
  return out;
}

std::vector<f64> default_seconds_buckets() {
  return log_spaced_buckets(1e-6, 100.0, 3);
}

f64 histogram_quantile(std::span<const f64> bounds,
                       std::span<const u64> counts, f64 q) {
  SRSR_CHECK(q >= 0.0 && q <= 1.0, "histogram_quantile: q must be in [0, 1]");
  SRSR_CHECK(counts.size() == bounds.size() + 1,
             "histogram_quantile: counts must be bounds + overflow");
  u64 total = 0;
  for (const u64 c : counts) total += c;
  if (total == 0) return 0.0;
  // The (1-based) rank of the q-th observation, nearest-rank style.
  const f64 target = q * static_cast<f64>(total);
  f64 cumulative = 0.0;
  for (std::size_t b = 0; b < bounds.size(); ++b) {
    const f64 in_bucket = static_cast<f64>(counts[b]);
    if (cumulative + in_bucket >= target && in_bucket > 0.0) {
      const f64 lo = b == 0 ? 0.0 : bounds[b - 1];
      const f64 hi = bounds[b];
      return lo + (hi - lo) * (target - cumulative) / in_bucket;
    }
    cumulative += in_bucket;
  }
  // Overflow bucket: clamp to the last finite edge (a lower bound).
  return bounds.back();
}

namespace {

void check_name(const std::string& name) {
  SRSR_CHECK(name.size() > 5 && name.compare(0, 5, "srsr.") == 0 &&
                 name.back() != '.',
             "MetricsRegistry: metric name '", name,
             "' must follow the srsr.<subsystem>.<name> scheme");
}

}  // namespace

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  check_name(name);
  std::lock_guard<std::mutex> lock(mutex_);
  SRSR_CHECK(gauges_.count(name) == 0 && histograms_.count(name) == 0,
             "MetricsRegistry: '", name,
             "' already registered as another kind");
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  check_name(name);
  std::lock_guard<std::mutex> lock(mutex_);
  SRSR_CHECK(counters_.count(name) == 0 && histograms_.count(name) == 0,
             "MetricsRegistry: '", name,
             "' already registered as another kind");
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<f64> upper_bounds) {
  check_name(name);
  std::lock_guard<std::mutex> lock(mutex_);
  SRSR_CHECK(counters_.count(name) == 0 && gauges_.count(name) == 0,
             "MetricsRegistry: '", name,
             "' already registered as another kind");
  auto& slot = histograms_[name];
  if (!slot)
    slot = std::make_unique<Histogram>(upper_bounds.empty()
                                           ? default_seconds_buckets()
                                           : std::move(upper_bounds));
  return *slot;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  for (const auto& [name, c] : counters_)
    snap.counters.emplace_back(name, c->value());
  for (const auto& [name, g] : gauges_)
    snap.gauges.emplace_back(name, g->value());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.bounds = h->bounds();
    hs.counts = h->counts();
    hs.count = h->count();
    hs.sum = h->sum();
    snap.histograms.emplace_back(name, std::move(hs));
  }
  return snap;
}

TextTable MetricsRegistry::snapshot_table() const {
  const Snapshot snap = snapshot();
  // One name-sorted row list across all instrument kinds, so diffs of
  // two stats runs line up row for row. Each per-kind list is already
  // name-sorted (std::map iteration); merge them.
  struct Row {
    std::string name;
    std::string type;
    std::string value;
  };
  std::vector<Row> rows;
  rows.reserve(snap.counters.size() + snap.gauges.size() +
               snap.histograms.size());
  for (const auto& [name, v] : snap.counters)
    rows.push_back({name, "counter", TextTable::num(v)});
  for (const auto& [name, v] : snap.gauges)
    rows.push_back({name, "gauge", TextTable::sci(v, 4)});
  for (const auto& [name, h] : snap.histograms) {
    // Quantiles, not bucket dumps: p50/p90/p99 are what a human scans
    // a stats table for (histogram_quantile documents the error bound).
    rows.push_back({name, "histogram",
                    TextTable::num(h.count) + " obs, p50 " +
                        TextTable::sci(h.quantile(0.50), 3) + ", p90 " +
                        TextTable::sci(h.quantile(0.90), 3) + ", p99 " +
                        TextTable::sci(h.quantile(0.99), 3) + ", mean " +
                        TextTable::sci(h.count == 0 ? 0.0
                                                    : h.sum / static_cast<f64>(
                                                                  h.count),
                                       3)});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.name < b.name; });
  TextTable t({"Metric", "Type", "Value"});
  for (const Row& r : rows) t.add_row({r.name, r.type, r.value});
  return t;
}

std::string MetricsRegistry::snapshot_json() const {
  const Snapshot snap = snapshot();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    if (!first) out += ',';
    first = false;
    out += json::quote(name) + ":" + json::number(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    if (!first) out += ',';
    first = false;
    out += json::quote(name) + ":" + json::number(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ',';
    first = false;
    out += json::quote(name) + ":{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) out += ',';
      out += json::number(h.bounds[i]);
    }
    out += "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i) out += ',';
      out += json::number(h.counts[i]);
    }
    out += "],\"count\":" + json::number(h.count) +
           ",\"sum\":" + json::number(h.sum) + "}";
  }
  out += "}}";
  return out;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_)
    c->value_.store(0, std::memory_order_relaxed);
  for (auto& [name, g] : gauges_)
    g->bits_.store(0, std::memory_order_relaxed);
  for (auto& [name, h] : histograms_) {
    for (auto& bucket : h->counts_) bucket.store(0, std::memory_order_relaxed);
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_bits_.store(0, std::memory_order_relaxed);
  }
}

}  // namespace srsr::obs
