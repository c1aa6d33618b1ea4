#include "serve/recompute.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <numeric>
#include <utility>

#include "core/kappa.hpp"
#include "core/spam_proximity.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_timer.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace srsr::serve {

RecomputePipeline::RecomputePipeline(
    const core::SpamResilientSourceRank& model, graph::Hosts hosts,
    SnapshotStore& store, RecomputeConfig config)
    // The hosts resolve first, before the cold solve and the worker: a
    // throw after std::thread started would std::terminate.
    : hosts_(std::move(hosts).resolve(model.num_sources(),
                                      "RecomputePipeline")),
      topology_(&model.source_graph().topology()),
      owned_(std::in_place, model), ranker_(&*owned_),
      span_name_("serve.recompute"), store_(&store), config_(config) {
  // Started last, once every member the loop reads is in place.
  worker_ = std::thread([this] { worker_loop(); });
}

RecomputePipeline::RecomputePipeline(stream::IncrementalRanker& ranker,
                                     SnapshotStore& store,
                                     RecomputeConfig config)
    : ranker_(&ranker), span_name_("serve.update"), store_(&store),
      config_(config) {
  SRSR_CHECK(ranker.num_sources() > 0,
             "RecomputePipeline: dynamic ranker has no sources");
  worker_ = std::thread([this] { worker_loop(); });
}

RecomputePipeline::~RecomputePipeline() { stop(); }

void RecomputePipeline::submit(std::vector<f64> kappa, std::string policy) {
  enqueue(std::move(kappa), std::move(policy));
}

void RecomputePipeline::submit_spam_labels(std::vector<NodeId> source_seeds,
                                           u32 top_k) {
  enqueue(Labels{std::move(source_seeds), top_k},
          "top_" + std::to_string(top_k) + "_proximity");
}

void RecomputePipeline::submit_update(stream::UpdateBatch batch) {
  SRSR_CHECK(dynamic(),
             "RecomputePipeline::submit_update: pipeline is static — "
             "construct over an IncrementalRanker for topology updates");
  enqueue(std::move(batch), "");
}

void RecomputePipeline::enqueue(Change change, std::string policy) {
  Update update{std::move(change), std::move(policy),
                obs::current_span_context()};
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    queue_.push_back(std::move(update));
    ++stats_.submitted;
    depth = queue_.size();
  }
  if (obs::metrics_enabled())
    obs::MetricsRegistry::instance()
        .gauge("srsr.serve.update.queue_depth")
        .set(static_cast<f64>(depth));
  wake_.notify_one();
}

void RecomputePipeline::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && !busy_; });
}

void RecomputePipeline::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      // Second stop (e.g. explicit stop() then the destructor): the
      // worker is already gone or going; just make sure it is joined.
    } else {
      stop_ = true;
      stats_.coalesced += queue_.size();
      queue_.clear();
    }
  }
  wake_.notify_all();
  idle_.notify_all();
  if (worker_.joinable()) worker_.join();
}

RecomputePipeline::Stats RecomputePipeline::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.queue_depth = queue_.size();
  return out;
}

void RecomputePipeline::report_into(obs::RunReport& report) const {
  const Stats s = stats();
  report.set_meta("serve.published", s.published);
  report.set_meta("serve.failed", s.failed);
  report.set_meta("serve.coalesced", s.coalesced);
  report.set_meta("serve.last_epoch", s.last_epoch);
  if (!s.last_error.empty()) report.set_meta("serve.last_error", s.last_error);
  report.set_meta("serve.update.coalesced_batches", s.coalesced_batches);
  report.set_meta("serve.update.mutations", s.mutations_applied);
  report.set_meta("serve.update.last_pushes", s.last_pushes);
  report.set_meta("serve.update.last_dirty_rows", s.last_dirty_rows);
  if (!s.last_path.empty())
    report.set_meta("serve.update.last_path", s.last_path);
}

void RecomputePipeline::worker_loop() {
  for (;;) {
    std::vector<Update> run;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stop_ set and nothing left to solve
      run.assign(std::make_move_iterator(queue_.begin()),
                 std::make_move_iterator(queue_.end()));
      queue_.clear();
      busy_ = true;
    }
    {
      // Cross-thread hand-off: this span runs on the worker but
      // descends from the request of the run's first update (or roots a
      // fresh trace when it came from untraced code). Solve-stage spans
      // opened further down nest under it through the thread cursor.
      obs::Span span(span_name_, run.front().ctx);
      obs::StageTimer stage(span_name_);
      RunTotals totals;
      // Strictly in submit order: a kappa vector submitted before a
      // growth batch is sized for the pre-growth id space, and label
      // updates walk the topology as of their position in the stream.
      for (const Update& update : run) {
        try {
          apply(update, totals);
          ++totals.applied;
        } catch (const std::exception& e) {
          // Bad kappa vectors, malformed batches and contract
          // violations fail only their own update. The ranker re-solves
          // itself against whatever the graph holds before rethrowing,
          // so (graph, sigma) stay consistent for the rest of the run.
          totals.clean = false;
          fail(e.what());
        }
      }
      if (totals.applied > 1) {
        const u64 folded = totals.applied - 1;
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          stats_.coalesced_batches += folded;
        }
        if (obs::metrics_enabled())
          obs::MetricsRegistry::instance()
              .counter("srsr.serve.update.coalesced_batches")
              .add(folded);
      }
      if (totals.applied > 0) {
        try {
          publish(totals);
        } catch (const std::exception& e) {
          fail(e.what());
        }
      }
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      busy_ = false;
    }
    idle_.notify_all();
  }
}

void RecomputePipeline::apply(const Update& update, RunTotals& totals) {
  stream::UpdateOutcome outcome;
  if (const auto* batch = std::get_if<stream::UpdateBatch>(&update.change)) {
    outcome = ranker_->apply(*batch);
    ++totals.batches;
  } else {
    const auto* labels = std::get_if<Labels>(&update.change);
    outcome = ranker_->set_kappa(
        labels ? label_kappa(*labels)
               : std::get<std::vector<f64>>(update.change));
    applied_policy_ = update.policy;
  }
  totals.pushes += outcome.pushes;
  totals.dirty_rows += outcome.dirty_rows;
  totals.mutations += outcome.mutations;
  totals.seconds += outcome.seconds;
  totals.converged = totals.converged && outcome.converged;
}

std::vector<f64> RecomputePipeline::label_kappa(const Labels& labels) const {
  const auto walk = [&](const graph::Graph& topology) {
    return core::kappa_top_k(
        core::spam_proximity(topology, labels.seeds).scores, labels.top_k);
  };
  // The model's topology is borrowed. The dynamic graph's is built by
  // value and lives only for the walk: a reference kept past this full
  // expression would dangle.
  return topology_ ? walk(*topology_) : walk(ranker_->graph().topology());
}

RankSnapshot RecomputePipeline::ranker_snapshot(const RunTotals& totals) {
  obs::Span span("serve.snapshot_build");
  obs::StageTimer stage("serve.snapshot_build");
  const stream::UpdateOutcome& last = ranker_->last_outcome();
  const std::vector<f64>& kappa = ranker_->kappa();
  SnapshotMeta meta;
  meta.kappa_policy = applied_policy_;
  meta.solver = "push";
  meta.iterations = static_cast<u32>(
      std::min<u64>(totals.pushes, std::numeric_limits<u32>::max()));
  meta.residual = last.max_residual;
  meta.converged = totals.converged;
  meta.solve_seconds = totals.seconds;
  meta.kappa_mass = std::accumulate(kappa.begin(), kappa.end(), 0.0);
  // Warm = the push state survived the whole run (no cold re-seed).
  meta.warm_started = last.path == stream::UpdatePath::kDelta;
  const graph::HostIndexPtr& hosts =
      dynamic() ? ranker_->graph().hosts() : hosts_;
  // The rows the ranker changed since the last publish are the ones
  // whose place in that epoch's order has to be rebuilt.
  const std::optional<std::vector<NodeId>> changed =
      ranker_->take_changed_rows();
  if (changed && last_published_)
    return RankSnapshot(ranker_->sigma(), hosts, std::move(meta),
                        *last_published_, *changed);
  return RankSnapshot(ranker_->sigma(), hosts, std::move(meta));
}

void RecomputePipeline::publish(const RunTotals& totals) {
  if (!totals.converged) {
    fail("push solve did not converge after " +
         std::to_string(totals.pushes) + " pushes");
    return;
  }
  const u64 epoch = store_->publish(ranker_snapshot(totals));
  last_published_ = store_->current();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.published;
    stats_.last_epoch = epoch;
    if (totals.clean) stats_.last_error.clear();
    stats_.mutations_applied += totals.mutations;
    stats_.last_pushes = totals.pushes;
    stats_.last_dirty_rows = totals.dirty_rows;
    stats_.last_path = stream::to_string(ranker_->last_outcome().path);
  }
  if (config_.slo) config_.slo->on_publish();
  if (config_.drift) {
    const DriftReport drift = config_.drift->on_publish(*last_published_);
    if (drift.anomalous)
      log_warn("serve: anomalous ranking drift publishing epoch ",
               drift.to_epoch, " (", drift.reason, ")");
  }
  if (obs::metrics_enabled()) {
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter("srsr.serve.recompute.published").add();
    reg.gauge("srsr.serve.snapshot.epoch").set(static_cast<f64>(epoch));
    reg.counter("srsr.serve.update.batches").add(totals.batches);
    reg.counter("srsr.serve.update.mutations").add(totals.mutations);
    reg.gauge("srsr.serve.update.last_pushes")
        .set(static_cast<f64>(totals.pushes));
    reg.gauge("srsr.serve.update.queue_depth").set(0.0);
  }
}

void RecomputePipeline::fail(const std::string& why) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.failed;
    stats_.last_error = why;
  }
  if (obs::metrics_enabled())
    obs::MetricsRegistry::instance()
        .counter("srsr.serve.recompute.failed")
        .add();
  log_warn("serve: update failed, epoch ", store_->epoch(),
           " stays live: ", why);
}

}  // namespace srsr::serve
