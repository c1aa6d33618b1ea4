#include "stream/incremental.hpp"

#include <cmath>
#include <cstddef>
#include <utility>

#include "core/srsr.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace srsr::stream {

namespace {

/// Entry (row, col) of T'' for the row store's T' weight `w` under
/// `plan`: the diagonal is overridden wholesale, off-diagonal weights
/// rescaled — the same map push_continue applies to the rows it reads.
f64 throttled_weight(const rank::RowAffinePlan& plan, NodeId row, NodeId col,
                     f64 w) {
  return col == row ? plan.diagonal[row] : plan.off_scale[row] * w;
}

}  // namespace

const char* to_string(UpdatePath path) {
  switch (path) {
    case UpdatePath::kDelta:
      return "delta";
    case UpdatePath::kFull:
      return "full";
    case UpdatePath::kFallback:
      return "fallback";
  }
  return "unknown";
}

IncrementalRanker::IncrementalRanker(DynamicSourceGraph& graph,
                                     IncrementalConfig config)
    : IncrementalRanker(
          &graph,
          [g = &graph](NodeId u) {
            return rank::OperatorRow{g->row_cols(u), g->row_weights(u)};
          },
          graph.row_stats(), config) {}

IncrementalRanker::IncrementalRanker(
    const core::SpamResilientSourceRank& model)
    : IncrementalRanker(
          nullptr,
          [m = &model.base_matrix()](NodeId u) {
            return rank::OperatorRow{m->row_cols(u), m->row_weights(u)};
          },
          model.row_stats(),
          IncrementalConfig{.alpha = model.config().alpha,
                            .mode = model.config().throttle_mode}) {}

IncrementalRanker::IncrementalRanker(DynamicSourceGraph* graph,
                                     rank::RowAccessor row_of,
                                     const core::ThrottleRowStats& row_stats,
                                     IncrementalConfig config)
    : graph_(graph), row_of_(std::move(row_of)), row_stats_(row_stats),
      config_(config) {
  SRSR_CHECK(std::isfinite(config.alpha) && config.alpha >= 0.0 &&
                 config.alpha < 1.0,
             "IncrementalRanker: alpha = ", config.alpha,
             ", must be in [0, 1)");
  SRSR_CHECK(std::isfinite(config.epsilon) && config.epsilon > 0.0,
             "IncrementalRanker: epsilon must be positive and finite");
  SRSR_CHECK(std::isfinite(config.full_mass_threshold) &&
                 config.full_mass_threshold > 0.0,
             "IncrementalRanker: full_mass_threshold must be positive");
  const u32 ns = row_stats.num_rows();
  SRSR_CHECK(ns > 0, "IncrementalRanker: graph has no sources");
  WallTimer timer;
  kappa_.assign(ns, 0.0);
  plan_ = core::make_throttle_plan(row_stats_, kappa_, config_.mode);
  seed_cold();
  // Initial seed mass is ||c||_1 = 1 > any sane threshold: the decision
  // rule itself routes the constructor through the cold full path.
  UpdateOutcome outcome = solve(UpdateOutcome{});
  outcome.seconds = timer.seconds();
  last_outcome_ = outcome;
}

void IncrementalRanker::seed_cold() {
  const u32 ns = row_stats_.num_rows();
  p_.assign(ns, 0.0);
  r_.assign(ns, 1.0 / static_cast<f64>(ns));
}

void IncrementalRanker::grow_state(u32 old_sources) {
  const u32 ns = graph_->num_sources();
  if (ns == old_sources) return;
  SRSR_CHECK(ns > old_sources,
             "IncrementalRanker: source id space shrank (", old_sources,
             " -> ", ns, ") — sources are append-only");
  kappa_.resize(ns, 0.0);
  p_.resize(ns, 0.0);
  // The uniform teleport c is 1/n: growing n shifts every old entry of
  // the exact residual r = (alpha*A^T p + (1-alpha)c - p)/(1-alpha) by
  // the c delta, and seeds each new entry at its full teleport share
  // (p and A^T p are zero there until a dirty row links in).
  const f64 c_new = 1.0 / static_cast<f64>(ns);
  const f64 shift = c_new - 1.0 / static_cast<f64>(old_sources);
  for (u32 i = 0; i < old_sources; ++i) r_[i] += shift;
  r_.resize(ns, c_new);
}

void IncrementalRanker::inject_row(NodeId row, const rank::OperatorRow& entries,
                                   const rank::RowAffinePlan& plan, f64 sign) {
  const f64 pu = p_[row];
  if (pu == 0.0) return;
  const f64 scale = sign * config_.alpha / (1.0 - config_.alpha) * pu;
  const auto cols = entries.cols;
  const auto weights = entries.weights;
  for (std::size_t i = 0; i < cols.size(); ++i)
    r_[cols[i]] += scale * throttled_weight(plan, row, cols[i], weights[i]);
}

UpdateOutcome IncrementalRanker::solve(UpdateOutcome outcome) {
  f64 seed_mass = 0.0;
  for (const f64 v : r_) seed_mass += std::abs(v);
  outcome.seed_mass = seed_mass;

  // Push reads T' rows straight from row_of_ and applies the current
  // plan itself: nothing materialized, nothing copied.
  rank::PushConfig push;
  push.alpha = config_.alpha;
  push.epsilon = config_.epsilon;
  push.normalize = false;

  bool need_cold = seed_mass > config_.full_mass_threshold;
  outcome.path = need_cold ? UpdatePath::kFull : UpdatePath::kDelta;
  rank::PushResult result;
  std::vector<f64> residual;
  if (!need_cold) {
    const u64 n = num_sources();
    // The cap is a stall safeguard, not a budget: signed push contracts
    // ||r||_1 by at least (1-alpha)*epsilon per push, so a healthy
    // delta never gets near it.
    push.max_pushes = config_.max_delta_pushes != 0 ? config_.max_delta_pushes
                                                    : 512 * n + 4096;
    result = rank::push_continue(push, std::move(p_), std::move(r_), plan_,
                                 row_of_, &residual);
    if (result.converged) {
      p_ = std::move(result.scores);
      r_ = std::move(residual);
    } else {
      // Residual stalled under the cap: the warm state is suspect —
      // discard it and re-solve cold for correctness.
      outcome.path = UpdatePath::kFallback;
      outcome.pushes += result.pushes;
      need_cold = true;
    }
  }
  if (need_cold) {
    seed_cold();
    push.max_pushes = 0;
    result = rank::push_continue(push, std::move(p_), std::move(r_), plan_,
                                 row_of_, &residual);
    p_ = std::move(result.scores);
    r_ = std::move(residual);
  }
  outcome.pushes += result.pushes;
  outcome.touched = result.touched;
  outcome.max_residual = result.max_residual;
  outcome.converged = result.converged;
  return outcome;
}

UpdateOutcome IncrementalRanker::apply(const UpdateBatch& batch) {
  SRSR_CHECK(graph_ != nullptr,
             "IncrementalRanker::apply: ranker is bound to a static model "
             "— topology updates need a DynamicSourceGraph");
  WallTimer timer;
  if (batch.sequence != 0) {
    SRSR_CHECK(batch.sequence > last_sequence_,
               "IncrementalRanker: batch sequence ", batch.sequence,
               " out of order (last applied ", last_sequence_, ")");
  }
  const u32 old_sources = num_sources();
  DynamicSourceGraph::ApplyResult applied;
  try {
    applied = graph_->apply(batch);
  }
  catch (...) {
    // The graph may hold a partial batch. Rebuild the ranker against
    // whatever it now holds so (graph, sigma) stay consistent, then
    // let the caller see the failure.
    grow_state(old_sources);
    plan_ = core::make_throttle_plan(row_stats_, kappa_, config_.mode);
    seed_cold();
    UpdateOutcome outcome = solve(UpdateOutcome{});
    outcome.seconds = timer.seconds();
    last_outcome_ = outcome;
    throw;
  }
  if (batch.sequence != 0) last_sequence_ = batch.sequence;

  UpdateOutcome outcome;
  outcome.dirty_rows = applied.dirty.size();
  outcome.mutations = applied.applied;
  outcome.noops = applied.noops;
  outcome.new_sources = applied.new_sources;

  // r' = r + alpha/(1-alpha) * (A' - A)^T p, assembled in four steps.
  // 1. Grow (kappa, p, r) to the new id space; teleport-shift r.
  grow_state(old_sources);
  // 2. Subtract each dirty row's OLD contribution under the OLD plan
  //    (rows born this batch have p = 0 and contribute nothing).
  for (std::size_t i = 0; i < applied.dirty.size(); ++i)
    inject_row(applied.dirty[i],
               rank::OperatorRow{applied.old_row_cols(i),
                                 applied.old_row_weights(i)},
               plan_, -1.0);
  // 3. Recompute the throttle plan against the repaired row stats.
  //    Unchanged rows' plan entries are bitwise identical (the plan is
  //    a deterministic per-row function of stats + kappa), so only the
  //    dirty rows' contributions actually moved.
  plan_ = core::make_throttle_plan(row_stats_, kappa_, config_.mode);
  // 4. Add each dirty row's NEW contribution under the NEW plan.
  for (const NodeId s : applied.dirty) inject_row(s, row_of_(s), plan_, 1.0);

  outcome = solve(std::move(outcome));
  outcome.seconds = timer.seconds();
  last_outcome_ = outcome;
  return outcome;
}

UpdateOutcome IncrementalRanker::set_kappa(std::span<const f64> kappa) {
  WallTimer timer;
  SRSR_CHECK(kappa.size() == num_sources(), "IncrementalRanker::set_kappa: ",
             kappa.size(), " entries for ", num_sources(), " sources");
  validate_kappa(kappa);
  rank::RowAffinePlan next =
      core::make_throttle_plan(row_stats_, kappa, config_.mode);

  UpdateOutcome outcome;
  // A plan change is a row delta with an unchanged sparsity pattern:
  // subtract under the old per-row affine map, add under the new one,
  // rows whose (off_scale, diagonal) pair is bitwise unchanged skipped.
  const NodeId n = num_sources();
  for (NodeId s = 0; s < n; ++s) {
    const bool same = next.off_scale[s] == plan_.off_scale[s] &&
                      next.diagonal[s] == plan_.diagonal[s];
    if (same) continue;
    const rank::OperatorRow row = row_of_(s);
    inject_row(s, row, plan_, -1.0);
    inject_row(s, row, next, 1.0);
    ++outcome.dirty_rows;
  }
  kappa_.assign(kappa.begin(), kappa.end());
  plan_ = std::move(next);

  outcome = solve(std::move(outcome));
  outcome.seconds = timer.seconds();
  last_outcome_ = outcome;
  return outcome;
}

std::vector<f64> IncrementalRanker::sigma() const {
  std::vector<f64> out(p_);
  f64 sum = 0.0;
  for (f64& v : out) {
    if (v < 0.0) v = 0.0;
    sum += v;
  }
  if (sum > 0.0)
    for (f64& v : out) v /= sum;
  return out;
}

}  // namespace srsr::stream
