// RecomputePipeline — the background write path of the serving layer.
//
// Watches a queue of ranking updates (a new kappa vector, or a new set
// of spam labels to derive one from), re-solves through the model's
// lazy ThrottledView warm-started from the live snapshot's sigma, and
// publishes the result atomically through the SnapshotStore. The query
// path never blocks: readers keep serving the previous epoch for the
// whole solve, and a failed solve (invalid kappa, or non-convergence
// when required) publishes nothing — the old snapshot stays live and
// the failure is counted, kept as last_error, and surfaced through
// report_into() / the metrics registry (graceful degradation).
//
// Updates coalesce: if several arrive while a solve is in flight, only
// the newest is solved and the rest are counted as coalesced — ranking
// updates are idempotent full recomputes, so intermediate states carry
// no information.
//
// DYNAMIC MODE (the second constructor): instead of a static model the
// pipeline owns write access to a stream::IncrementalRanker. Committed
// stream::UpdateBatch topology deltas are enqueued with
// submit_update(); the worker drains the WHOLE queue in submit order —
// topology batches are NOT last-wins coalescible (each moves the graph)
// — applies every update (kappa changes route through set_kappa, label
// updates walk the ranker's current topology), and folds the drained
// run into ONE publish (the fold is counted in coalesced_batches).
// Every publish is warm: the ranker carries its push state across
// batches, so a single-host edit republishes after a localized push
// instead of a full solve. A failed run keeps the old epoch live, like
// the static path.
//
// One worker thread, started in the constructor, joined in stop() /
// the destructor. This and util/parallel.hpp are the only places in
// the library allowed to spawn threads (tools/lint/srsr_lint.py
// enforces it).
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/report.hpp"
#include "obs/span.hpp"
#include "serve/monitor.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"
#include "stream/edge_stream.hpp"
#include "stream/incremental.hpp"
#include "util/common.hpp"

namespace srsr::serve {

struct RecomputeConfig {
  /// Warm-start each solve from the live snapshot's sigma. Off =
  /// every publish is cold and bitwise-reproducible against a direct
  /// model.rank() call.
  bool warm_start = true;
  /// Treat a solve that hits max_iterations without converging as a
  /// failure (no publish) instead of serving a half-converged vector.
  bool require_convergence = true;
  /// Optional watchdogs (must outlive the pipeline). `slo` is stamped
  /// on every publish; `drift` sees every published snapshot and
  /// judges it against its predecessor.
  SloMonitor* slo = nullptr;
  DriftMonitor* drift = nullptr;
};

class RecomputePipeline {
 public:
  /// `model` and `store` must outlive the pipeline. `hosts` (copied
  /// into every snapshot) must be empty or one entry per source.
  RecomputePipeline(const core::SpamResilientSourceRank& model,
                    std::vector<std::string> hosts, SnapshotStore& store,
                    RecomputeConfig config = {});

  /// Dynamic mode: the pipeline becomes the single writer of `ranker`
  /// (and its DynamicSourceGraph). Both must outlive the pipeline;
  /// hosts are read from the ranker's graph at every publish (the host
  /// set can grow).
  RecomputePipeline(stream::IncrementalRanker& ranker, SnapshotStore& store,
                    RecomputeConfig config = {});
  ~RecomputePipeline();

  RecomputePipeline(const RecomputePipeline&) = delete;
  RecomputePipeline& operator=(const RecomputePipeline&) = delete;

  /// Enqueues a throttle-vector update (one kappa entry per source).
  void submit(std::vector<f64> kappa, std::string policy = "custom");

  /// Enqueues a label update: the worker runs the spam-proximity walk
  /// from `source_seeds` over the model's source topology and fully
  /// throttles the top_k most proximate sources (the paper's Sec. 6.2
  /// policy).
  void submit_spam_labels(std::vector<NodeId> source_seeds, u32 top_k);

  /// Dynamic mode only: enqueues a committed topology batch. Batches
  /// are applied strictly in submit order; runs drained together fold
  /// into one publish.
  void submit_update(stream::UpdateBatch batch);

  /// Blocks until the queue is empty and no solve is in flight.
  void drain();

  /// Stops the worker after the update it is currently solving (the
  /// rest of the queue is dropped and counted as coalesced). Idempotent;
  /// also called by the destructor.
  void stop();

  struct Stats {
    u64 submitted = 0;
    u64 published = 0;
    u64 failed = 0;
    u64 coalesced = 0;
    u64 last_epoch = 0;        // 0 = nothing published yet
    std::string last_error;    // empty = no failure so far
    /// Updates waiting in the queue right now (sampled by stats()).
    u64 queue_depth = 0;
    /// Dynamic mode: updates folded into a shared publish (the drained
    /// run minus the one publish it produced).
    u64 coalesced_batches = 0;
    /// Dynamic mode: page mutations that changed graph state, total.
    u64 mutations_applied = 0;
    /// Dynamic mode: the last publish's solve footprint.
    u64 last_pushes = 0;
    u64 last_dirty_rows = 0;
    std::string last_path;  // "delta" | "full" | "fallback"; empty = static
  };
  Stats stats() const;

  /// Writes the pipeline outcome into a run report ("serve.published",
  /// "serve.failed", "serve.coalesced", "serve.last_epoch", and
  /// "serve.last_error" when a solve has failed).
  void report_into(obs::RunReport& report) const;

  /// True when constructed over an IncrementalRanker.
  bool dynamic() const { return ranker_ != nullptr; }

 private:
  struct Update {
    std::vector<f64> kappa;        // direct kappa update
    std::vector<NodeId> seeds;     // label update (kappa derived)
    u32 top_k = 0;
    bool from_seeds = false;
    stream::UpdateBatch batch;     // dynamic mode: topology delta
    bool topology = false;
    std::string policy;
    /// Submitter's span context, captured at submit() time — the
    /// explicit hand-off that parents the worker's recompute span to
    /// the request that triggered it (obs/span.hpp rule 2).
    obs::SpanContext ctx;
  };

  void worker_loop();
  void solve_and_publish(const Update& update);
  /// Dynamic worker: applies a drained run of updates in order through
  /// the ranker, then publishes once.
  void apply_and_publish(const std::vector<Update>& updates);
  const core::SpamResilientSourceRank* model_;  // null in dynamic mode
  stream::IncrementalRanker* ranker_ = nullptr;  // null in static mode
  std::vector<std::string> hosts_;
  SnapshotStore* store_;
  RecomputeConfig config_;
  /// Dynamic mode, worker only: policy label of the last kappa-bearing
  /// update, stamped into every publish's meta.
  std::string applied_policy_ = "uniform_zero";
  mutable std::mutex mutex_;
  std::condition_variable wake_;   // worker: queue non-empty or stopping
  std::condition_variable idle_;   // drain(): queue empty and not busy
  std::deque<Update> queue_;
  bool busy_ = false;
  bool stop_ = false;
  Stats stats_;

  std::thread worker_;  // started at the end of the constructor body
};

}  // namespace srsr::serve
