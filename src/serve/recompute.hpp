// RecomputePipeline — the background write path of the serving layer.
//
// Watches a queue of ranking updates (a new kappa vector, a new set of
// spam labels to derive one from, or — in dynamic mode — a committed
// topology batch), applies them on one background worker, and publishes
// the result atomically through the SnapshotStore. The query path never
// blocks: readers keep serving the previous epoch for the whole solve.
//
// One loop serves both constructors. Every update goes to one
// stream::IncrementalRanker: over a static model (first constructor)
// the pipeline owns it, built before the worker starts (one cold push
// at kappa = 0); over a DynamicSourceGraph (second constructor) the
// caller does. The worker takes the WHOLE queue as one run, applies
// EVERY update in submit order — kappa vectors through set_kappa,
// label updates as kappa derived from the current topology, topology
// batches through apply — and folds the run into ONE publish of the
// ranker's sigma (the fold is counted in coalesced_batches). Every
// publish is warm: the ranker carries its push state across updates, so
// a kappa swap or a single-host edit republishes after a push sized to
// the change, with push's n*epsilon/(1-alpha) error bound.
//
// Failure is per update: an update that throws (invalid kappa,
// malformed batch) is counted in `failed` and kept as last_error, and
// the rest of its run still applies. A run publishes once if anything
// in it applied, and never publishes an unconverged sigma (that counts
// as one more failure). Either way the old snapshot stays live
// (graceful degradation). Every submitted update is accounted for
// exactly once:
//
//   published + failed + coalesced + coalesced_batches == submitted,
//
// where `coalesced` counts the updates stop() dropped from the queue.
//
// One worker thread, started in the constructor, joined in stop() /
// the destructor. This and util/parallel.hpp are the only places in
// the library allowed to spawn threads (tools/lint/srsr_lint.py
// enforces it).
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "obs/report.hpp"
#include "graph/host_index.hpp"
#include "obs/span.hpp"
#include "serve/monitor.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"
#include "stream/edge_stream.hpp"
#include "stream/incremental.hpp"
#include "util/common.hpp"

namespace srsr::serve {

struct RecomputeConfig {
  /// Optional watchdogs (must outlive the pipeline). `slo` is stamped
  /// on every publish; `drift` sees every published snapshot and
  /// judges it against its predecessor.
  SloMonitor* slo = nullptr;
  DriftMonitor* drift = nullptr;
};

class RecomputePipeline {
 public:
  /// `model` and `store` must outlive the pipeline. `hosts` (a shared
  /// index or names to index, once, here) must be empty or one unique
  /// name per source; every snapshot shares the one index. Throws, before
  /// any thread starts, when it is not. Runs the owned ranker's cold
  /// kappa = 0 solve before returning.
  RecomputePipeline(const core::SpamResilientSourceRank& model,
                    graph::Hosts hosts, SnapshotStore& store,
                    RecomputeConfig config = {});

  /// Dynamic mode: the pipeline becomes the single writer of `ranker`
  /// (and its DynamicSourceGraph). Both must outlive the pipeline;
  /// every publish shares the graph's current host index (the host set
  /// can grow).
  RecomputePipeline(stream::IncrementalRanker& ranker, SnapshotStore& store,
                    RecomputeConfig config = {});
  ~RecomputePipeline();

  RecomputePipeline(const RecomputePipeline&) = delete;
  RecomputePipeline& operator=(const RecomputePipeline&) = delete;

  /// Enqueues a throttle-vector update (one kappa entry per source).
  void submit(std::vector<f64> kappa, std::string policy = "custom");

  /// Enqueues a label update: the worker runs the spam-proximity walk
  /// from `source_seeds` over the current source topology and fully
  /// throttles the top_k most proximate sources (the paper's Sec. 6.2
  /// policy).
  void submit_spam_labels(std::vector<NodeId> source_seeds, u32 top_k);

  /// Dynamic mode only: enqueues a committed topology batch. Updates
  /// are applied strictly in submit order; runs drained together fold
  /// into one publish.
  void submit_update(stream::UpdateBatch batch);

  /// Blocks until the queue is empty and no solve is in flight.
  void drain();

  /// Stops the worker after the run it is currently applying (the rest
  /// of the queue is dropped and counted as coalesced). Idempotent;
  /// also called by the destructor.
  void stop();

  struct Stats {
    u64 submitted = 0;
    u64 published = 0;
    u64 failed = 0;
    /// Updates stop() dropped from the queue unapplied.
    u64 coalesced = 0;
    u64 last_epoch = 0;        // 0 = nothing published yet
    /// The newest failure's message; cleared by a publish whose run
    /// had no failing update.
    std::string last_error;
    /// Updates waiting in the queue right now (sampled by stats()).
    u64 queue_depth = 0;
    /// Updates folded into a shared publish (the drained run's applied
    /// updates minus the one publish they produced).
    u64 coalesced_batches = 0;
    /// Dynamic mode: page mutations that changed graph state, total.
    u64 mutations_applied = 0;
    /// The last publish's solve footprint.
    u64 last_pushes = 0;
    u64 last_dirty_rows = 0;
    /// "delta" | "full" | "fallback"; empty = nothing published yet.
    std::string last_path;
  };
  Stats stats() const;

  /// Writes the pipeline outcome into a run report ("serve.published",
  /// "serve.failed", "serve.coalesced", "serve.last_epoch",
  /// "serve.last_error" when a solve has failed, and the push
  /// footprint under "serve.update.*").
  void report_into(obs::RunReport& report) const;

  /// True when constructed over an IncrementalRanker.
  bool dynamic() const { return !owned_; }

 private:
  /// A label update: the worker derives kappa from it.
  struct Labels {
    std::vector<NodeId> seeds;
    u32 top_k = 0;
  };
  /// A direct kappa vector, spam labels, or a topology batch.
  using Change = std::variant<std::vector<f64>, Labels, stream::UpdateBatch>;
  struct Update {
    Change change;
    std::string policy;  // kappa and label updates
    /// Submitter's span context, captured at submit() time — the
    /// explicit hand-off that parents the worker's span to the request
    /// that triggered it (obs/span.hpp rule 2).
    obs::SpanContext ctx;
  };
  /// The applied updates of one run, summed into its one publish.
  struct RunTotals {
    u64 applied = 0;  // updates that did not throw
    bool clean = true;  // no update of the run threw
    u64 batches = 0;
    u64 pushes = 0;
    u64 dirty_rows = 0;
    u64 mutations = 0;
    f64 seconds = 0.0;
    bool converged = true;
  };

  void enqueue(Change change, std::string policy);
  void worker_loop();
  /// Applies one update to the ranker, in place, and adds its outcome
  /// to `totals`.
  void apply(const Update& update, RunTotals& totals);
  /// The Sec. 6.2 kappa: spam-proximity walk from the labels over the
  /// current source topology, the top_k most proximate fully throttled.
  std::vector<f64> label_kappa(const Labels& labels) const;
  /// The ranker's current sigma as a snapshot, its rank order patched
  /// from last_published_'s by the rows the ranker changed since.
  RankSnapshot ranker_snapshot(const RunTotals& totals);
  /// Publishes a run's snapshot, or fails the run when it did not
  /// converge; either way stats, watchdogs and metrics follow.
  void publish(const RunTotals& totals);
  /// Counts one failure; the live epoch stays as it is.
  void fail(const std::string& why);

  /// Static mode: the snapshots' hosts, the model's topology and the
  /// owned ranker (dynamic mode reads hosts and topology off the graph).
  graph::HostIndexPtr hosts_;
  const graph::Graph* topology_ = nullptr;
  std::optional<stream::IncrementalRanker> owned_;
  stream::IncrementalRanker* ranker_;  // &*owned_, or the caller's
  const char* span_name_;  // "serve.recompute" | "serve.update"
  SnapshotStore* store_;
  RecomputeConfig config_;
  /// Worker only: policy label of the last kappa-bearing update,
  /// stamped into every publish's meta.
  std::string applied_policy_ = "uniform_zero";
  /// Worker only: this pipeline's newest epoch. The ranker's changed
  /// rows are counted from it, so the next publish patches its order.
  SnapshotPtr last_published_;
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
