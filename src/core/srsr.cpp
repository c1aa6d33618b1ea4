#include "core/srsr.hpp"

#include <cmath>

#include "obs/span.hpp"
#include "obs/stage_timer.hpp"
#include "util/check.hpp"

namespace srsr::core {

namespace {

/// Times the SourceGraph build without disturbing member-initializer
/// order (the graph is constructed before the ctor body runs).
SourceGraph build_source_graph(const graph::Graph& pages,
                               const SourceMap& map) {
  obs::StageTimer stage("core.source_graph_build");
  return SourceGraph(pages, map);
}

}  // namespace

SpamResilientSourceRank::SpamResilientSourceRank(const graph::Graph& pages,
                                                 const SourceMap& map,
                                                 SrsrConfig config)
    : config_(config), source_graph_(build_source_graph(pages, map)) {
  SRSR_CHECK(std::isfinite(config_.alpha) && config_.alpha >= 0.0 &&
                 config_.alpha < 1.0,
             "SpamResilientSourceRank: alpha = ", config_.alpha,
             ", must be in [0, 1)");
  {
    obs::StageTimer stage("core.base_matrix_build");
    base_matrix_ = config_.weighting == EdgeWeighting::kConsensus
                       ? source_graph_.consensus_matrix(config_.self_edges)
                       : source_graph_.uniform_matrix(config_.self_edges);
  }
  // The one O(E) transpose of the model's lifetime: every kappa
  // configuration afterwards is an O(V) plan over it.
  base_transpose_ = base_matrix_.transpose();
  row_stats_ = ThrottleRowStats::of(base_matrix_);
  // T' is built by consensus/uniform weighting, which must emit a
  // row-(sub)stochastic matrix (Eq. 2 precondition). O(E), so debug and
  // sanitizer builds only.
  SRSR_DEBUG_VALIDATE(validate_row_stochastic(
      base_matrix_, 1e-9, "SpamResilientSourceRank base matrix"));
}

rank::StochasticMatrix SpamResilientSourceRank::throttled_matrix(
    std::span<const f64> kappa) const {
  SRSR_CHECK(kappa.size() == num_sources(),
             "SpamResilientSourceRank::throttled_matrix: kappa has ",
             kappa.size(), " entries for ", num_sources(), " sources");
  obs::StageTimer stage("core.throttle_transform");
  return materialize_throttled(
      base_matrix_, make_throttle_plan(row_stats_, kappa,
                                       config_.throttle_mode));
}

rank::ThrottledView SpamResilientSourceRank::throttled_view(
    std::span<const f64> kappa) const {
  SRSR_CHECK(kappa.size() == num_sources(),
             "SpamResilientSourceRank::throttled_view: kappa has ",
             kappa.size(), " entries for ", num_sources(), " sources");
  obs::Span span("core.throttle_plan");
  obs::StageTimer stage("core.throttle_plan");
  return rank::ThrottledView(
      base_matrix_, base_transpose_,
      make_throttle_plan(row_stats_, kappa, config_.throttle_mode));
}

rank::RankResult SpamResilientSourceRank::solve(
    const rank::ThrottledView& op) const {
  obs::Span span("core.solve");
  obs::StageTimer stage("core.solve");
  rank::SolverConfig sc;
  sc.alpha = config_.alpha;
  sc.convergence = config_.convergence;
  return config_.solver == SolverKind::kPower ? rank::power_solve(op, sc)
                                              : rank::jacobi_solve(op, sc);
}

rank::RankResult SpamResilientSourceRank::rank(
    std::span<const f64> kappa) const {
  // The view's plan build re-derives everything from kappa; reject a
  // bad vector here so the error names the public entry point.
  SRSR_CHECK(kappa.size() == num_sources(),
             "SpamResilientSourceRank::rank: kappa has ", kappa.size(),
             " entries for ", num_sources(), " sources");
  validate_kappa(kappa, "SpamResilientSourceRank::rank: kappa");
  return solve(throttled_view(kappa));
}

rank::RankResult SpamResilientSourceRank::rank_baseline() const {
  // Through the same view path as rank() with kappa = 0, so the two are
  // bitwise identical (the KappaZeroEqualsBaseline contract).
  const std::vector<f64> zeros(num_sources(), 0.0);
  return rank(zeros);
}

SpamResilientSourceRank::ThrottledRanking
SpamResilientSourceRank::rank_with_spam_seeds(
    const std::vector<NodeId>& spam_seeds, u32 top_k,
    const SpamProximityConfig& proximity_config) const {
  ThrottledRanking out;
  out.proximity = spam_proximity(source_graph_.topology(), spam_seeds,
                                 proximity_config);
  out.kappa = kappa_top_k(out.proximity.scores, top_k);
  out.ranking = rank(out.kappa);
  return out;
}

}  // namespace srsr::core
