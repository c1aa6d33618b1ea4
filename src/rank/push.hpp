// Residual push: local and incremental PageRank.
//
// Solves the same linear system as jacobi_solve,
//
//   x = alpha * A^T x + (1-alpha) * c,
//
// by maintaining an estimate p and a residual r with the invariant
//
//   x = p + (1-alpha) * (I - alpha*A^T)^{-1} r,
//
// initialized as p = 0, r = c. A is a base matrix B under a per-row
// affine plan (rank/operator.hpp): A_uv = off_scale[u] * B_uv off the
// diagonal, A_uu = diagonal[u]. A push at node u eliminates u's
// self-loop in closed form — it moves the whole geometric series of
// self-pushes at once:
//
//   k = r_u / (1 - alpha*A_uu);   p_u += (1-alpha) * k;
//   r_v += alpha * A_uv * k  (v != u);   r_u = 0.
//
// Pushes keep the invariant exact, so the order is free. The frontier
// is FIFO while it is sparse; while it holds more than n/16 rows the
// loop instead sweeps every frontier row in ascending id order (a cold
// solve starts there). Both orders are serial and deterministic.
//
// Work is proportional to the residual mass actually moved, not to the
// graph size — which enables the two things the power method cannot do:
//
//   - LOCAL solves: with a concentrated teleport c, only the
//     neighborhood that matters is ever touched;
//   - INCREMENTAL updates (push_continue): the invariant makes the
//     exact residual a function of the estimate,
//       r = (alpha*A^T p + (1-alpha)c - p) / (1-alpha),
//     so after the matrix changes from A to A' the caller keeps p and
//     corrects r by the (signed!) row deltas alpha/(1-alpha)(A'-A)^T p;
//     for a handful of edited rows the correction is supported on
//     their out-neighborhoods only, so the update cost scales with the
//     edit, not the graph. Residuals may be negative; pushes handle
//     both signs (stream/incremental.hpp drives this).
//
// Scores are returned L1-normalized like the other solvers.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "obs/trace.hpp"
#include "rank/operator.hpp"
#include "rank/stochastic.hpp"
#include "util/common.hpp"

namespace srsr::rank {

struct PushConfig {
  f64 alpha = 0.85;
  /// Push until every |r_u| < epsilon. The unnormalized solution error
  /// is bounded by ||r||_1, so epsilon ~ tol/n matches a power-method
  /// L1 tolerance of tol.
  f64 epsilon = 1e-12;
  /// Safety cap on total pushes (0 = no cap).
  u64 max_pushes = 0;
  /// Teleport / seed distribution c; uniform when absent. A sparse c
  /// (e.g. one source) makes the solve local.
  std::optional<std::vector<f64>> teleport;
  /// Clamp tiny negative leftovers and L1-normalize the scores on exit
  /// (the solver output contract). The incremental ranker turns this
  /// off: it carries the RAW estimate across batches, and with deficit
  /// rows (teleport-discard throttling) the normalized vector does not
  /// satisfy the linear system — re-seeding from it would inject a
  /// dense spurious defect.
  bool normalize = true;
  /// Optional trace hook (non-owning). Push sweeps only part of the
  /// time, so the contract differs from the power-style solvers: one
  /// record per num_rows() pushes — a sweep-equivalent — with the
  /// magnitude of the residual just pushed as the residual proxy, plus a
  /// final record at termination carrying the exit max-residual.
  obs::IterationTrace* trace = nullptr;
};

struct PushResult {
  std::vector<f64> scores;  // L1-normalized (raw when !config.normalize)
  u64 pushes = 0;           // total push operations performed
  u64 touched = 0;          // distinct nodes ever pushed
  f64 max_residual = 0.0;   // on exit
  bool converged = false;
  f64 seconds = 0.0;
};

/// Forward BASE row accessor: row_of(u) serves row u of B (the matrix
/// the plan reweights) as an OperatorRow whose spans stay valid until
/// the next call. Any self entry it carries is ignored: the plan's
/// diagonal replaces it.
using RowAccessor = std::function<OperatorRow(NodeId)>;

/// Continues a push solve from EXPLICIT (estimate, residual) state —
/// the one push loop; the solves below start it at p = 0, r = c. The
/// operator is A = plan applied to the base rows `row_of` serves; only
/// the plan's off_scale and diagonal are read (deficit mass is not
/// redistributed, as in jacobi_solve). The caller owns the invariant
/// x = p + (1-alpha)(I - alpha*A^T)^{-1} r:
/// after a sparse topology or plan edit it adjusts r by the signed row
/// deltas and hands the pair back here; work is then proportional to
/// the injected residual mass, not the graph. When `residual_out` is
/// non-null the final residual vector is moved into it so the state can
/// be carried into the next batch (pair with config.normalize = false —
/// see the PushConfig field comment). When `pushed_out` is non-null it
/// receives every row pushed at least once, ascending: the only rows
/// whose estimate entry changed.
/// Traced as span rank.push.solve, the solvers' rank.<name>.solve
/// convention.
PushResult push_continue(const PushConfig& config, std::vector<f64> estimate,
                         std::vector<f64> residual, const RowAffinePlan& plan,
                         const RowAccessor& row_of,
                         std::vector<f64>* residual_out = nullptr,
                         std::vector<NodeId>* pushed_out = nullptr);

/// Full solve from scratch (p = 0, r = c) along direct CSR rows of
/// `matrix` (no transpose) under identity_plan(matrix).
PushResult push_solve(const StochasticMatrix& matrix,
                      const PushConfig& config);

/// Full solve along a ThrottledView: its base rows under its plan.
PushResult push_solve(const ThrottledView& view, const PushConfig& config);

}  // namespace srsr::rank
