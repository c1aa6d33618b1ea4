#include "serve/recompute.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

#include "core/kappa.hpp"
#include "core/spam_proximity.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_timer.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace srsr::serve {

namespace {

/// Validates before the worker thread exists — a throw from the
/// constructor body after std::thread started would std::terminate.
std::vector<std::string> validated_hosts(std::vector<std::string> hosts,
                                         NodeId num_sources) {
  SRSR_CHECK(hosts.empty() || hosts.size() == num_sources,
             "RecomputePipeline: ", hosts.size(), " hosts for ",
             num_sources, " sources");
  return hosts;
}

}  // namespace

RecomputePipeline::RecomputePipeline(
    const core::SpamResilientSourceRank& model,
    std::vector<std::string> hosts, SnapshotStore& store,
    RecomputeConfig config)
    : model_(&model),
      hosts_(validated_hosts(std::move(hosts), model.num_sources())),
      store_(&store), config_(config) {
  // Started last, once every member the loop reads is in place.
  worker_ = std::thread([this] { worker_loop(); });
}

RecomputePipeline::RecomputePipeline(stream::IncrementalRanker& ranker,
                                     SnapshotStore& store,
                                     RecomputeConfig config)
    : model_(nullptr), ranker_(&ranker), store_(&store), config_(config) {
  SRSR_CHECK(ranker.num_sources() > 0,
             "RecomputePipeline: dynamic ranker has no sources");
  worker_ = std::thread([this] { worker_loop(); });
}

RecomputePipeline::~RecomputePipeline() { stop(); }

void RecomputePipeline::submit(std::vector<f64> kappa, std::string policy) {
  Update u;
  u.kappa = std::move(kappa);
  u.policy = std::move(policy);
  u.ctx = obs::current_span_context();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    queue_.push_back(std::move(u));
    ++stats_.submitted;
  }
  wake_.notify_one();
}

void RecomputePipeline::submit_spam_labels(std::vector<NodeId> source_seeds,
                                           u32 top_k) {
  Update u;
  u.seeds = std::move(source_seeds);
  u.top_k = top_k;
  u.from_seeds = true;
  u.policy = "top_" + std::to_string(top_k) + "_proximity";
  u.ctx = obs::current_span_context();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    queue_.push_back(std::move(u));
    ++stats_.submitted;
  }
  wake_.notify_one();
}

void RecomputePipeline::submit_update(stream::UpdateBatch batch) {
  SRSR_CHECK(dynamic(),
             "RecomputePipeline::submit_update: pipeline is static — "
             "construct over an IncrementalRanker for topology updates");
  Update u;
  u.batch = std::move(batch);
  u.topology = true;
  u.policy = "stream_update";
  u.ctx = obs::current_span_context();
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    queue_.push_back(std::move(u));
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
  if (dynamic()) {
    report.set_meta("serve.update.coalesced_batches", s.coalesced_batches);
    report.set_meta("serve.update.mutations", s.mutations_applied);
    report.set_meta("serve.update.last_pushes", s.last_pushes);
    report.set_meta("serve.update.last_dirty_rows", s.last_dirty_rows);
    if (!s.last_path.empty())
      report.set_meta("serve.update.last_path", s.last_path);
  }
}

void RecomputePipeline::worker_loop() {
  for (;;) {
    Update update;
    std::vector<Update> run;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stop_ set and nothing left to solve
      if (dynamic()) {
        // Topology deltas are NOT last-wins coalescible — each one
        // moves the graph. Drain the whole queue in submit order and
        // fold it into one publish.
        run.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
        queue_.clear();
        busy_ = true;
        const u64 folded = run.size() - 1;
        stats_.coalesced_batches += folded;
        if (folded > 0 && obs::metrics_enabled())
          obs::MetricsRegistry::instance()
              .counter("srsr.serve.update.coalesced_batches")
              .add(folded);
      } else {
        // Coalesce: only the newest update matters — a recompute is a
        // full idempotent re-solve, not an incremental delta.
        const u64 skipped = queue_.size() - 1;
        stats_.coalesced += skipped;
        update = std::move(queue_.back());
        queue_.clear();
        busy_ = true;
        if (skipped > 0 && obs::metrics_enabled())
          obs::MetricsRegistry::instance()
              .counter("srsr.serve.recompute.coalesced")
              .add(skipped);
      }
    }
    if (dynamic())
      apply_and_publish(run);
    else
      solve_and_publish(update);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      busy_ = false;
    }
    idle_.notify_all();
  }
}

void RecomputePipeline::apply_and_publish(const std::vector<Update>& updates) {
  // Parent the worker's span to the request that triggered the run
  // (the first update's submitter; later ones folded into the same
  // publish are its coalesced siblings).
  obs::Span span("serve.update", updates.front().ctx);
  obs::StageTimer stage("serve.update");
  auto fail = [this](const std::string& why) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.failed;
      stats_.last_error = why;
    }
    if (obs::metrics_enabled())
      obs::MetricsRegistry::instance()
          .counter("srsr.serve.recompute.failed")
          .add();
    log_warn("serve: update run failed, keeping epoch ", store_->epoch(),
             " live: ", why);
  };

  u64 pushes = 0, dirty_rows = 0, mutations = 0, batches = 0;
  f64 seconds = 0.0;
  bool converged = true;
  try {
    // Strictly in submit order: a kappa vector submitted before a
    // growth batch is sized for the pre-growth id space, and label
    // updates walk the topology as of their position in the stream.
    for (const Update& u : updates) {
      stream::UpdateOutcome outcome;
      if (u.topology) {
        outcome = ranker_->apply(u.batch);
        ++batches;
      } else if (u.from_seeds) {
        const auto prox = core::spam_proximity(
            ranker_->graph().topology(), u.seeds);
        outcome = ranker_->set_kappa(core::kappa_top_k(prox.scores, u.top_k));
        applied_policy_ = u.policy;
      } else {
        outcome = ranker_->set_kappa(u.kappa);
        applied_policy_ = u.policy;
      }
      pushes += outcome.pushes;
      dirty_rows += outcome.dirty_rows;
      mutations += outcome.mutations;
      seconds += outcome.seconds;
      converged = converged && outcome.converged;
    }

    const stream::UpdateOutcome& last = ranker_->last_outcome();
    if (config_.require_convergence && !converged) {
      fail("incremental update run did not converge (path " +
           std::string(stream::to_string(last.path)) + ", " +
           std::to_string(pushes) + " pushes)");
      return;
    }

    SnapshotMeta meta;
    meta.kappa_policy = applied_policy_;
    meta.solver = "push";
    meta.iterations = static_cast<u32>(
        std::min<u64>(pushes, std::numeric_limits<u32>::max()));
    meta.residual = last.max_residual;
    meta.converged = converged;
    meta.solve_seconds = seconds;
    f64 kappa_mass = 0.0;
    for (const f64 k : ranker_->kappa()) kappa_mass += k;
    meta.kappa_mass = kappa_mass;
    // Warm = the push state survived the whole run (no cold re-seed).
    meta.warm_started = last.path == stream::UpdatePath::kDelta;

    RankSnapshot snapshot(ranker_->sigma(), ranker_->graph().hosts(),
                          std::move(meta));
    const u64 epoch = store_->publish(std::move(snapshot));
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.published;
      stats_.last_epoch = epoch;
      stats_.last_error.clear();
      stats_.mutations_applied += mutations;
      stats_.last_pushes = pushes;
      stats_.last_dirty_rows = dirty_rows;
      stats_.last_path = stream::to_string(last.path);
    }
    if (config_.slo) config_.slo->on_publish();
    if (config_.drift) {
      const DriftReport drift = config_.drift->on_publish(*store_->current());
      if (drift.anomalous)
        log_warn("serve: anomalous ranking drift publishing epoch ",
                 drift.to_epoch, " (", drift.reason, ")");
    }
    if (obs::metrics_enabled()) {
      auto& reg = obs::MetricsRegistry::instance();
      reg.counter("srsr.serve.recompute.published").add();
      reg.counter("srsr.serve.update.batches").add(batches);
      reg.counter("srsr.serve.update.mutations").add(mutations);
      reg.gauge("srsr.serve.snapshot.epoch").set(static_cast<f64>(epoch));
      reg.gauge("srsr.serve.update.last_pushes")
          .set(static_cast<f64>(pushes));
      reg.gauge("srsr.serve.update.queue_depth").set(0.0);
    }
  } catch (const std::exception& e) {
    // The ranker re-solves itself against whatever the graph holds
    // before rethrowing, so (graph, sigma) stay consistent; the rest
    // of this drained run is dropped and the old epoch stays live.
    fail(e.what());
  }
}

void RecomputePipeline::solve_and_publish(const Update& update) {
  // Cross-thread hand-off: this span runs on the worker but descends
  // from the submitter's request span (or roots a fresh trace when the
  // update came from untraced code). Solve-stage spans opened further
  // down this call chain nest under it through the thread cursor.
  obs::Span span("serve.recompute", update.ctx);
  obs::StageTimer stage("serve.recompute");
  auto fail = [this](const std::string& why) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.failed;
      stats_.last_error = why;
    }
    if (obs::metrics_enabled())
      obs::MetricsRegistry::instance()
          .counter("srsr.serve.recompute.failed")
          .add();
    log_warn("serve: recompute failed, keeping epoch ", store_->epoch(),
             " live: ", why);
  };

  try {
    std::vector<f64> kappa;
    if (update.from_seeds) {
      const auto prox = core::spam_proximity(
          model_->source_graph().topology(), update.seeds);
      kappa = core::kappa_top_k(prox.scores, update.top_k);
    } else {
      kappa = update.kappa;
    }

    SnapshotBuild build;
    build.policy = update.policy;
    // Warm start from the live sigma: the next fixed point is close
    // when the policy moved a little, so iterations drop sharply (the
    // ablation_warmstart bench quantifies it). The handle also keeps
    // the old epoch alive until the solve is done.
    const SnapshotPtr live = store_->current();
    if (config_.warm_start && live) build.warm_start = live->scores();

    RankSnapshot snapshot =
        make_snapshot(*model_, kappa, hosts_, build);
    if (config_.require_convergence && !snapshot.meta().converged) {
      fail("solve did not converge after " +
           std::to_string(snapshot.meta().iterations) + " iterations");
      return;
    }
    const u64 epoch = store_->publish(std::move(snapshot));
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.published;
      stats_.last_epoch = epoch;
      stats_.last_error.clear();
    }
    if (config_.slo) config_.slo->on_publish();
    if (config_.drift) {
      const DriftReport drift = config_.drift->on_publish(*store_->current());
      if (drift.anomalous)
        log_warn("serve: anomalous ranking drift publishing epoch ",
                 drift.to_epoch, " (", drift.reason, ")");
    }
    if (obs::metrics_enabled()) {
      auto& reg = obs::MetricsRegistry::instance();
      reg.counter("srsr.serve.recompute.published").add();
      reg.gauge("srsr.serve.snapshot.epoch").set(static_cast<f64>(epoch));
    }
  } catch (const std::exception& e) {
    // Bad kappa vectors and contract violations surface here; the old
    // snapshot stays live.
    fail(e.what());
  }
}

}  // namespace srsr::serve
