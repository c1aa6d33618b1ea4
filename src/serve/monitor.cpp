#include "serve/monitor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace srsr::serve {

namespace {

u64 steady_now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          // srsr-analyze: allow(determinism): feeds snapshot staleness
          // metadata (SLO freshness verdicts), never the sigma values.
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

SloMonitor::SloMonitor(SloConfig config)
    : config_(config),
      // 100ns .. 10s at 5 buckets/decade: relative quantile error
      // <= 10^(1/5) - 1 ~ 58% in the worst case, well inside the
      // order-of-magnitude resolution SLO verdicts need. The 10s top
      // edge keeps even pathological latencies out of the overflow
      // bucket, where estimates would degrade to lower bounds.
      bounds_(obs::log_spaced_buckets(1e-7, 10.0, 5)),
      counts_(bounds_.size() + 1),
      last_publish_ns_(steady_now_ns()),
      window_base_(bounds_.size() + 1, 0) {
  SRSR_CHECK(config_.p50_objective > 0.0 && config_.p99_objective > 0.0 &&
                 config_.staleness_objective > 0.0,
             "SloMonitor: objectives must be positive");
}

void SloMonitor::record_query(f64 seconds) {
  SRSR_DCHECK(seconds >= 0.0, "SloMonitor::record_query: latency ", seconds,
              " s, must be non-negative");
  std::size_t b = 0;
  while (b < bounds_.size() && seconds > bounds_[b]) ++b;
  counts_[b].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
}

void SloMonitor::on_publish() {
  last_publish_ns_.store(steady_now_ns(), std::memory_order_relaxed);
}

SloStatus SloMonitor::evaluate() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<u64> now(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i)
    now[i] = counts_[i].load(std::memory_order_relaxed);

  std::vector<u64> window(now.size());
  u64 window_total = 0;
  for (std::size_t i = 0; i < now.size(); ++i) {
    window[i] = now[i] - window_base_[i];
    window_total += window[i];
  }
  // Thin windows have no meaningful tail quantile; fall back to the
  // all-time distribution rather than alerting on noise.
  const std::vector<u64>& sample =
      window_total >= config_.min_window_queries ? window : now;

  SloStatus s;
  s.window_queries = window_total;
  s.total_queries = total_.load(std::memory_order_relaxed);
  s.p50 = obs::histogram_quantile(bounds_, sample, 0.50);
  s.p99 = obs::histogram_quantile(bounds_, sample, 0.99);
  s.staleness_seconds =
      static_cast<f64>(steady_now_ns() -
                       last_publish_ns_.load(std::memory_order_relaxed)) /
      1e9;

  const bool have_latency = s.total_queries > 0;
  const bool p50_breach = have_latency && s.p50 > config_.p50_objective;
  const bool p99_breach = have_latency && s.p99 > config_.p99_objective;
  const bool stale = s.staleness_seconds > config_.staleness_objective;
  if (p50_breach) p50_breaches_.fetch_add(1, std::memory_order_relaxed);
  if (p99_breach) p99_breaches_.fetch_add(1, std::memory_order_relaxed);
  if (stale) staleness_breaches_.fetch_add(1, std::memory_order_relaxed);
  s.p50_breaches = p50_breaches_.load(std::memory_order_relaxed);
  s.p99_breaches = p99_breaches_.load(std::memory_order_relaxed);
  s.staleness_breaches = staleness_breaches_.load(std::memory_order_relaxed);
  s.healthy = !p50_breach && !p99_breach && !stale;

  window_base_ = std::move(now);
  s.evaluations = last_.evaluations + 1;
  last_ = s;

  if (obs::metrics_enabled()) {
    auto& reg = obs::MetricsRegistry::instance();
    reg.gauge("srsr.serve.slo.p50_seconds").set(s.p50);
    reg.gauge("srsr.serve.slo.p99_seconds").set(s.p99);
    reg.gauge("srsr.serve.slo.staleness_seconds").set(s.staleness_seconds);
    if (p50_breach) reg.counter("srsr.serve.slo.p50_breaches").add();
    if (p99_breach) reg.counter("srsr.serve.slo.p99_breaches").add();
    if (stale) reg.counter("srsr.serve.slo.staleness_breaches").add();
  }
  return s;
}

SloStatus SloMonitor::status() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SloStatus s = last_;
  s.total_queries = total_.load(std::memory_order_relaxed);
  s.p50_breaches = p50_breaches_.load(std::memory_order_relaxed);
  s.p99_breaches = p99_breaches_.load(std::memory_order_relaxed);
  s.staleness_breaches =
      staleness_breaches_.load(std::memory_order_relaxed);
  return s;
}

DriftMonitor::DriftMonitor(DriftConfig config) : config_(config) {
  SRSR_CHECK(config_.l1_alert > 0.0 && config_.churn_alert > 0.0 &&
                 config_.outlier_z > 0.0 && config_.top_k > 0,
             "DriftMonitor: thresholds must be positive");
}

DriftReport DriftMonitor::on_publish(const RankSnapshot& snap) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const NodeId n = snap.num_sources();
  const auto top_span = snap.top(config_.top_k);
  std::vector<NodeId> top(top_span.begin(), top_span.end());

  DriftReport r;
  r.to_epoch = snap.meta().epoch;
  if (prev_scores_.size() != static_cast<std::size_t>(n)) {
    // First publish (or a topology change): establish the baseline
    // without judging it — there is no predecessor to drift from.
    prev_scores_.assign(snap.scores().begin(), snap.scores().end());
    prev_top_ = std::move(top);
    prev_epoch_ = r.to_epoch;
    r.from_epoch = r.to_epoch;
    last_ = r;
    return r;
  }

  r.from_epoch = prev_epoch_;
  f64 l1 = 0.0, sum = 0.0, sum_sq = 0.0;
  for (NodeId s = 0; s < n; ++s) {
    const f64 d = snap.score(s) - prev_scores_[s];
    l1 += std::abs(d);
    sum += d;
    sum_sq += d * d;
    if (std::abs(d) > std::abs(r.max_shift)) {
      r.max_shift = d;
      r.max_shift_source = s;
    }
  }
  r.l1_delta = l1;
  const f64 mean = sum / static_cast<f64>(n);
  const f64 variance =
      std::max(0.0, sum_sq / static_cast<f64>(n) - mean * mean);
  const f64 stddev = std::sqrt(variance);
  if (stddev > 0.0) {
    const f64 cut = config_.outlier_z * stddev;
    for (NodeId s = 0; s < n; ++s)
      if (std::abs(snap.score(s) - prev_scores_[s] - mean) > cut)
        ++r.outliers;
  }

  if (!prev_top_.empty()) {
    const std::unordered_set<NodeId> now(top.begin(), top.end());
    u32 evicted = 0;
    for (const NodeId s : prev_top_)
      if (now.count(s) == 0) ++evicted;
    r.topk_churn =
        static_cast<f64>(evicted) / static_cast<f64>(prev_top_.size());
  }

  if (r.l1_delta > config_.l1_alert) {
    r.anomalous = true;
    r.reason = "l1 " + std::to_string(r.l1_delta) + " > " +
               std::to_string(config_.l1_alert);
  } else if (r.topk_churn > config_.churn_alert) {
    r.anomalous = true;
    r.reason = "top-" + std::to_string(config_.top_k) + " churn " +
               std::to_string(r.topk_churn) + " > " +
               std::to_string(config_.churn_alert);
  }

  compared_.fetch_add(1, std::memory_order_relaxed);
  if (r.anomalous) anomalies_.fetch_add(1, std::memory_order_relaxed);
  if (obs::metrics_enabled()) {
    auto& reg = obs::MetricsRegistry::instance();
    reg.gauge("srsr.serve.drift.l1").set(r.l1_delta);
    reg.gauge("srsr.serve.drift.topk_churn").set(r.topk_churn);
    reg.gauge("srsr.serve.drift.outliers").set(static_cast<f64>(r.outliers));
    reg.counter("srsr.serve.drift.publishes").add();
    if (r.anomalous) reg.counter("srsr.serve.drift.anomalies").add();
  }

  prev_scores_.assign(snap.scores().begin(), snap.scores().end());
  prev_top_ = std::move(top);
  prev_epoch_ = r.to_epoch;
  last_ = r;
  return r;
}

DriftReport DriftMonitor::last_report() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return last_;
}

}  // namespace srsr::serve
