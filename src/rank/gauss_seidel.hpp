// Gauss-Seidel solver for the PageRank linear system.
//
// The paper's computation note (Sec. 2) points at stationary iterative
// methods for Eq. 1, citing the Jacobi route of Gleich/Zhukov/Berkhin.
// Gauss-Seidel solves the same system
//
//   x = alpha * A^T x + (1-alpha) * c
//
// but consumes freshly-updated components within a sweep, which roughly
// halves the iteration count on web matrices at the cost of being
// inherently sequential (no parallel-for inside a sweep). Self-loop
// entries are handled implicitly: x_v appears on both sides, so
//   x_v = (alpha * sum_{u != v} w_uv x_u + (1-alpha) c_v)
//         / (1 - alpha * w_vv).
//
// Like jacobi_solve, deficit mass evaporates and the final vector is
// L1-normalized — on deficit-free matrices all three solvers agree.
#pragma once

#include "rank/solvers.hpp"

namespace srsr::rank {

/// Gauss-Seidel sweeps until the successive-iterate distance passes the
/// convergence test. `config.initial` seeds the first sweep.
RankResult gauss_seidel_solve(const StochasticMatrix& matrix,
                              const SolverConfig& config);

/// Operator form: sweeps via pull_off_diagonal() / diagonal(), so a
/// ThrottledView runs without materializing the throttled matrix.
RankResult gauss_seidel_solve(const ThrottledView& op,
                              const SolverConfig& config);

}  // namespace srsr::rank
