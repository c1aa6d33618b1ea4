// ThrottledView: the one operator the iterative solvers consume.
//
// The solvers never needed a concrete matrix — they need two access
// patterns over one:
//
//   pull(x, y)               y = A^T x, the hot kernel of the power and
//                            Jacobi routes (parallel across rows);
//   base() + plan()          forward rows of B and the per-row map that
//                            turns them into A, for residual push.
//
// ThrottledView holds a base matrix B and its transpose (both built
// ONCE by the caller) plus a RowAffinePlan of three O(V) vectors;
// entries of A are computed on the fly as off_scale[r] * B_rc with the
// diagonal overridden. Under the throttle plan
// (core::make_throttle_plan) A = T'' = throttle(T', kappa), so sweeping
// kappa configurations costs an O(V) plan build per configuration
// instead of two O(E) copies (materialize + transpose). Under
// identity_plan(B) A = B itself: that is how the StochasticMatrix
// overloads of the solvers iterate a materialized matrix. (Push reads
// base rows and applies the plan itself, so it runs the same way over
// stream's mutable row store through push_continue's row accessor — no
// second operator type.)
//
// A ThrottledView is immutable after construction and safe to share
// across threads for concurrent pull() calls (lock-free reads of
// const CSR arrays; the tsan suite pins this).
#pragma once

#include <span>
#include <vector>

#include "rank/stochastic.hpp"
#include "util/common.hpp"

namespace srsr::rank {

/// Per-row affine reweighting of a base matrix B:
///
///   A_rc = off_scale[r] * B_rc   (c != r)
///   A_rr = diagonal[r]           (regardless of whether B_rr exists)
///
/// `deficit[r]` caches max(0, 1 - row sum of A) so the power solver
/// needs no O(E) pass. Produced for the throttle transform by
/// core::make_throttle_plan; any per-row affine reweighting fits.
struct RowAffinePlan {
  std::vector<f64> off_scale;
  std::vector<f64> diagonal;
  std::vector<f64> deficit;
};

/// One forward row of a base matrix, as push's row accessors serve it.
/// The spans alias the row storage; they stay valid until that storage
/// changes.
struct OperatorRow {
  std::span<const NodeId> cols;
  std::span<const f64> weights;
};

/// The plan under which a ThrottledView over `matrix` reproduces
/// `matrix` itself: off_scale = 1, diagonal = the row's self weight
/// (summed over self entries; 0 when it has none), deficit =
/// row_deficits(). O(E).
RowAffinePlan identity_plan(const StochasticMatrix& matrix);

/// The lazy row-affine operator: entries of A computed on read from the
/// transposed base plus the per-row plan. Both matrices must outlive the
/// view; `transpose` must be `base.transpose()`.
class ThrottledView {
 public:
  ThrottledView(const StochasticMatrix& base,
                const StochasticMatrix& transpose, RowAffinePlan plan);

  /// Swaps in the next kappa configuration's plan — O(1) beyond the
  /// O(V) plan the caller already built.
  void reset_plan(RowAffinePlan plan);

  const RowAffinePlan& plan() const { return plan_; }
  /// The base matrix B the plan reweights.
  const StochasticMatrix& base() const { return *base_; }

  NodeId num_rows() const { return base_->num_rows(); }
  /// Entries in the base sparsity pattern (reporting only).
  u64 num_entries() const { return base_->num_entries(); }

  /// Per-row probability deficits max(0, 1 - row_sum): the mass the
  /// power solver re-routes to the teleport distribution.
  const std::vector<f64>& deficits() const { return plan_.deficit; }

  /// y_v = sum_u x_u * A_uv for every v (pull form). Parallel across
  /// destination rows; x and y must both have num_rows() entries and
  /// must not alias.
  void pull(std::span<const f64> x, std::span<f64> y) const;

 private:
  const StochasticMatrix* base_;
  const StochasticMatrix* pull_;  // transpose of *base_
  RowAffinePlan plan_;
};

}  // namespace srsr::rank
