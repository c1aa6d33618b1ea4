// Stationary solvers over weighted stochastic matrices.
//
// Two routes to the Spam-Resilient SourceRank vector, mirroring the
// paper's Sec. 3.4:
//
//   power_solve  — the eigenvector route: power method on the Markov
//                  chain T_hat = alpha*A + (1-alpha)*1*c^T (Eq. 2), with
//                  dangling rows completed by the teleport vector.
//   jacobi_solve — the linear-system route (Eq. 3): Jacobi iterations on
//                  x = alpha*A^T x + (1-alpha)*c, the formulation of
//                  Gleich/Zhukov/Berkhin and Bianchini et al. that the
//                  paper cites, followed by the x/||x||_1 normalization
//                  the paper applies.
//
// On a matrix with no dangling rows the two produce the same vector (a
// property test pins this); with dangling rows they differ exactly by
// the dangling-mass completion, which is also the documented behaviour
// of the original algorithms.
#pragma once

#include <optional>
#include <vector>

#include "rank/convergence.hpp"
#include "rank/operator.hpp"
#include "rank/result.hpp"
#include "rank/stochastic.hpp"
#include "util/common.hpp"

namespace srsr::rank {

struct SolverConfig {
  f64 alpha = 0.85;
  Convergence convergence;
  /// Teleport / static-score distribution c; uniform when absent.
  std::optional<std::vector<f64>> teleport;
  /// Optional warm start (normalized before use); see
  /// PageRankConfig::initial.
  std::optional<std::vector<f64>> initial;
};

/// Power method on the teleportation-completed chain of `matrix`
/// (rows = origin, as the paper writes T). Returns a distribution.
RankResult power_solve(const StochasticMatrix& matrix,
                       const SolverConfig& config);

/// Jacobi iteration on the linear form, then L1 normalization.
RankResult jacobi_solve(const StochasticMatrix& matrix,
                        const SolverConfig& config);

/// Operator forms: iterate a ThrottledView instead of transposing a
/// materialized matrix per solve. The matrix overloads above transpose
/// once and run these over a view under identity_plan(matrix).
RankResult power_solve(const ThrottledView& op, const SolverConfig& config);
RankResult jacobi_solve(const ThrottledView& op, const SolverConfig& config);

}  // namespace srsr::rank
