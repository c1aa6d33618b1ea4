// Spam-Resilient SourceRank — the paper's ranking model, end to end.
//
// Pipeline (Sec. 3.4 "Putting it All Together"):
//
//   page graph + source map
//     -> SourceGraph (source view, Sec. 3.1)
//     -> T' (source-consensus influence flow, Sec. 3.2)
//     -> T'' (influence throttling with kappa, Sec. 3.3)
//     -> sigma: solve sigma^T = alpha sigma^T T'' + (1-alpha) c^T (Eq. 3)
//
// The class binds to one page graph + source map, precomputes the
// source graph, and then ranks cheaply under different throttling
// vectors — the access pattern of every experiment in Sec. 6 (one
// topology, many kappa configurations). "Cheaply" is structural: the
// base matrix is transposed ONCE at construction and every kappa is
// ranked through a rank::ThrottledView (an O(V) ThrottlePlan over the
// cached transpose), so a sweep never re-materializes or re-transposes
// an O(E) matrix.
#pragma once

#include <span>
#include <vector>

#include "core/kappa.hpp"
#include "core/source_graph.hpp"
#include "core/source_map.hpp"
#include "core/spam_proximity.hpp"
#include "core/throttle.hpp"
#include "rank/solvers.hpp"
#include "util/common.hpp"

namespace srsr::core {

enum class EdgeWeighting {
  kUniform,    // T  (Sec. 3.1) — the naive SourceRank baseline
  kConsensus,  // T' (Sec. 3.2) — source-consensus weighting
};

enum class SolverKind {
  kPower,   // eigenvector route (Eq. 2)
  kJacobi,  // linear-system route (Eq. 3)
};

struct SrsrConfig {
  f64 alpha = 0.85;
  rank::Convergence convergence;
  EdgeWeighting weighting = EdgeWeighting::kConsensus;
  /// Sec. 3.3 self-edge augmentation. Disabling it recovers the plain
  /// source-level PageRank of Sec. 3.1 (used by ablations).
  bool self_edges = true;
  SolverKind solver = SolverKind::kPower;
  /// How mandated throttle mass is handled — see throttle.hpp. The
  /// literal Sec. 3.3 reading (kSelfAbsorb) is the default; the Sec. 6
  /// experiments use kTeleportDiscard.
  ThrottleMode throttle_mode = ThrottleMode::kSelfAbsorb;
};

class SpamResilientSourceRank {
 public:
  SpamResilientSourceRank(const graph::Graph& pages, const SourceMap& map,
                          SrsrConfig config = {});

  u32 num_sources() const { return source_graph_.num_sources(); }
  const SourceGraph& source_graph() const { return source_graph_; }
  const SrsrConfig& config() const { return config_; }

  /// The weighted source matrix before throttling (T or T').
  const rank::StochasticMatrix& base_matrix() const { return base_matrix_; }

  /// The cached transpose of base_matrix() (built once at construction;
  /// what every rank() call iterates).
  const rank::StochasticMatrix& base_transpose() const {
    return base_transpose_;
  }

  /// The kappa-independent row sums of base_matrix() every throttle
  /// plan is built from.
  const ThrottleRowStats& row_stats() const { return row_stats_; }

  /// The influence-throttled matrix T'' for a given kappa, materialized
  /// (diagnostics/tests; rank() never calls this).
  rank::StochasticMatrix throttled_matrix(std::span<const f64> kappa) const;

  /// The lazy T'' operator for a given kappa: an O(V) plan over the
  /// cached transpose. The view borrows this model's matrices — it must
  /// not outlive the model. Call again (or reset_plan) per kappa; each
  /// call costs O(V), not O(E).
  rank::ThrottledView throttled_view(std::span<const f64> kappa) const;

  /// Ranks sources under the given throttling vector.
  rank::RankResult rank(std::span<const f64> kappa) const;

  /// Baseline SourceRank: no throttling information (kappa = 0).
  rank::RankResult rank_baseline() const;

  struct ThrottledRanking {
    rank::RankResult ranking;    // SRSR scores per source
    rank::RankResult proximity;  // spam-proximity scores per source
    std::vector<f64> kappa;      // throttling vector actually applied
  };

  /// The paper's full Sec. 6.2 procedure: spam-proximity walk from
  /// `spam_seeds`, throttle the top_k proximity sources completely,
  /// rank. (Seeds are typically a small sample of the true spam set.)
  ThrottledRanking rank_with_spam_seeds(
      const std::vector<NodeId>& spam_seeds, u32 top_k,
      const SpamProximityConfig& proximity_config = {}) const;

 private:
  rank::RankResult solve(const rank::ThrottledView& op) const;
  SrsrConfig config_;
  SourceGraph source_graph_;
  rank::StochasticMatrix base_matrix_;
  rank::StochasticMatrix base_transpose_;  // transpose of base_matrix_
  ThrottleRowStats row_stats_;             // kappa-independent row sums
};

}  // namespace srsr::core
