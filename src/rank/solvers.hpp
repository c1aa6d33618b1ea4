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
//   gauss_seidel_solve — the same linear system, but each sweep consumes
//                  freshly-updated components, which roughly halves the
//                  iteration count on web matrices at the cost of being
//                  inherently sequential. Self-loop entries are solved
//                  implicitly: x_v = (alpha * sum_{u != v} A_uv x_u +
//                  (1-alpha) c_v) / (1 - alpha * A_vv).
//
// On a matrix with no dangling rows the three produce the same vector (a
// property test pins this); with dangling rows they differ exactly by
// the dangling-mass completion, which is also the documented behaviour
// of the original algorithms. PageRank (rank/pagerank.hpp) is the power
// route over an unweighted page graph.
//
// All of them — power, Jacobi, Gauss-Seidel and PageRank — run through
// ONE stationary-iteration driver (solvers.cpp). The driver owns the
// start vector, the stop rule, the IterationTrace hook, the final L1
// normalization, the output contract, the srsr.rank.<name>.{solves,
// iterations,seconds} metrics and the rank.<name>.solve span; each
// solver supplies only its step x_k -> x_{k+1}.
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
  /// Mixing parameter alpha (the paper uses 0.85 throughout).
  f64 alpha = 0.85;
  Convergence convergence;
  /// Teleport / static-score distribution c (size n, non-negative,
  /// positive mass; normalized before use); uniform when absent.
  std::optional<std::vector<f64>> teleport;
  /// Optional warm start (size n, non-negative, positive mass;
  /// normalized before use). Re-ranking a graph that differs by a
  /// handful of edges from the previous solution typically cuts
  /// iterations severalfold. The fixed point is unchanged — only the
  /// path to it.
  std::optional<std::vector<f64>> initial;
};

/// The one input check of every stationary solve over `n` rows: alpha
/// in [0, 1), and the teleport and warm start, when present, each n
/// finite non-negative entries of positive mass. Throws srsr::Error.
/// Every public solver entry calls it at its own boundary.
void validate_solver_config(f64 alpha,
                            const std::optional<std::vector<f64>>& teleport,
                            const std::optional<std::vector<f64>>& initial,
                            NodeId n);

/// Power method on the teleportation-completed chain of `matrix`
/// (rows = origin, as the paper writes T). Returns a distribution.
RankResult power_solve(const StochasticMatrix& matrix,
                       const SolverConfig& config);

/// Jacobi iteration on the linear form, then L1 normalization.
RankResult jacobi_solve(const StochasticMatrix& matrix,
                        const SolverConfig& config);

/// Gauss-Seidel sweeps on the linear form, then L1 normalization. Like
/// jacobi_solve, deficit mass evaporates.
RankResult gauss_seidel_solve(const StochasticMatrix& matrix,
                              const SolverConfig& config);

/// Operator forms: iterate a ThrottledView instead of transposing a
/// materialized matrix per solve. The matrix overloads above transpose
/// once and run these over a view under identity_plan(matrix).
/// Gauss-Seidel sweeps via pull_off_diagonal() / diagonal().
RankResult power_solve(const ThrottledView& op, const SolverConfig& config);
RankResult jacobi_solve(const ThrottledView& op, const SolverConfig& config);
RankResult gauss_seidel_solve(const ThrottledView& op,
                              const SolverConfig& config);

}  // namespace srsr::rank
