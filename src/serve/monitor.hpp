// Serve-layer watchdogs: latency/staleness SLOs and ranking drift.
//
// Two monitors, both passive observers wired into the existing serve
// objects rather than layers in the request path:
//
//   SloMonitor    — the QueryEngine feeds it per-query latencies
//                   (lock-free log-bucket counts, always on once
//                   attached) and the RecomputePipeline stamps each
//                   publish. evaluate() turns the window since the
//                   previous evaluation into rolling p50/p99 estimates
//                   (obs::histogram_quantile error bounds apply),
//                   checks them and the publish staleness against the
//                   configured objectives, and bumps cumulative breach
//                   counters. Queries never block on evaluation.
//
//   DriftMonitor  — the RecomputePipeline shows it every published
//                   RankSnapshot. It compares each publish against its
//                   predecessor — L1 sigma delta, top-k churn, per-host
//                   mass-shift outliers — and flags anomalous drift.
//                   This operationalizes the paper's resilience claim
//                   at serve time: a spam-farm campaign that moves
//                   ranking mass shows up as a drift anomaly on the
//                   very publish that admitted it, while no-op
//                   republishes stay quiet (serve_monitor_test pins
//                   both directions).
//
// Thread contract: record_query() is called concurrently by reader
// threads (relaxed atomics only); on_publish() by the single recompute
// worker; evaluate()/status()/last_report() by whoever is watching
// (mutex-guarded cold paths). When obs metrics are enabled, both
// monitors mirror their verdicts into the registry under
// "srsr.serve.slo.*" / "srsr.serve.drift.*".
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "serve/snapshot.hpp"
#include "util/common.hpp"

namespace srsr::serve {

struct SloConfig {
  /// Rolling-quantile objectives for query latency, in seconds.
  f64 p50_objective = 1e-3;
  f64 p99_objective = 1e-2;
  /// Maximum tolerated age of the live snapshot, in seconds, measured
  /// from the last publish (or from monitor construction before the
  /// first publish).
  f64 staleness_objective = 300.0;
  /// Windows with fewer queries than this fall back to the all-time
  /// distribution — a handful of samples has no meaningful p99.
  u64 min_window_queries = 64;
};

struct SloStatus {
  f64 p50 = 0.0;            // rolling estimate, seconds
  f64 p99 = 0.0;
  f64 staleness_seconds = 0.0;
  u64 window_queries = 0;   // samples behind the rolling estimates
  u64 total_queries = 0;
  u64 p50_breaches = 0;     // cumulative evaluations in breach
  u64 p99_breaches = 0;
  u64 staleness_breaches = 0;
  u64 evaluations = 0;
  bool healthy = true;      // verdict of the most recent evaluation
};

class SloMonitor {
 public:
  explicit SloMonitor(SloConfig config = {});

  /// Lock-free; called from any number of query threads.
  void record_query(f64 seconds);

  /// Stamps "the live snapshot is fresh now". Called by the publish
  /// path (one writer).
  void on_publish();

  /// Evaluates the window since the previous evaluate() against the
  /// objectives, updates breach counters, and returns the new status.
  SloStatus evaluate();

  /// The most recent evaluation (plus live counter values) without
  /// starting a new window.
  SloStatus status() const;

  const SloConfig& config() const { return config_; }

 private:
  SloConfig config_;
  std::vector<f64> bounds_;                     // log-spaced, fixed
  std::vector<std::atomic<u64>> counts_;        // bounds_.size() + 1
  std::atomic<u64> total_{0};
  std::atomic<u64> last_publish_ns_;            // steady clock
  std::atomic<u64> p50_breaches_{0};
  std::atomic<u64> p99_breaches_{0};
  std::atomic<u64> staleness_breaches_{0};

  mutable std::mutex mutex_;   // evaluation state only
  std::vector<u64> window_base_;  // counts_ at the previous evaluate()
  SloStatus last_;
};

struct DriftConfig {
  /// L1 distance between consecutive sigma vectors above which a
  /// publish is anomalous. Sigmas are probability distributions, so
  /// this is total variation * 2: 0.05 means 2.5% of all ranking mass
  /// moved in one publish.
  f64 l1_alert = 0.05;
  /// Fraction of the previous top-k evicted in one publish above which
  /// the publish is anomalous.
  f64 churn_alert = 0.5;
  u32 top_k = 20;
  /// A source whose |sigma delta| exceeds this many standard
  /// deviations of the per-source delta distribution counts as a
  /// mass-shift outlier (reported, not alerting by itself).
  f64 outlier_z = 6.0;
};

struct DriftReport {
  u64 from_epoch = 0;
  u64 to_epoch = 0;
  f64 l1_delta = 0.0;
  f64 topk_churn = 0.0;       // fraction of previous top-k evicted
  u32 outliers = 0;           // per-host mass-shift outliers
  NodeId max_shift_source = kInvalidNode;
  f64 max_shift = 0.0;        // signed sigma delta of that source
  bool anomalous = false;
  /// Human-readable cause when anomalous ("l1 0.241 > 0.05", ...).
  std::string reason;
};

class DriftMonitor {
 public:
  explicit DriftMonitor(DriftConfig config = {});

  /// Compares `snap` against the previously seen publish (first call
  /// only establishes the baseline) and returns the report recorded.
  /// Single-writer: the publish path.
  DriftReport on_publish(const RankSnapshot& snap);

  /// The report of the most recent publish comparison.
  DriftReport last_report() const;

  /// Publishes flagged anomalous so far.
  u64 anomalies() const { return anomalies_.load(std::memory_order_relaxed); }
  /// Publishes compared (i.e. observed beyond the baseline).
  u64 compared() const { return compared_.load(std::memory_order_relaxed); }

  const DriftConfig& config() const { return config_; }

 private:
  DriftConfig config_;
  std::atomic<u64> anomalies_{0};
  std::atomic<u64> compared_{0};

  mutable std::mutex mutex_;
  std::vector<f64> prev_scores_;
  std::vector<NodeId> prev_top_;
  u64 prev_epoch_ = 0;
  DriftReport last_;
};

}  // namespace srsr::serve
