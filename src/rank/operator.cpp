#include "rank/operator.hpp"

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace srsr::rank {

RowAffinePlan identity_plan(const StochasticMatrix& matrix) {
  const NodeId n = matrix.num_rows();
  RowAffinePlan plan;
  plan.off_scale.assign(n, 1.0);
  plan.diagonal.assign(n, 0.0);
  for (NodeId r = 0; r < n; ++r) {
    const auto cs = matrix.row_cols(r);
    const auto ws = matrix.row_weights(r);
    for (std::size_t i = 0; i < cs.size(); ++i)
      if (cs[i] == r) plan.diagonal[r] += ws[i];
  }
  plan.deficit = matrix.row_deficits();
  return plan;
}

ThrottledView::ThrottledView(const StochasticMatrix& base,
                             const StochasticMatrix& transpose,
                             RowAffinePlan plan)
    : base_(&base), pull_(&transpose) {
  SRSR_CHECK(transpose.num_rows() == base.num_rows() &&
                 transpose.num_entries() == base.num_entries(),
             "ThrottledView: transpose does not match the base matrix");
  reset_plan(std::move(plan));
}

void ThrottledView::reset_plan(RowAffinePlan plan) {
  // O(V) per kappa configuration, same order as building the plan: a
  // NaN or out-of-range entry here would silently corrupt every pull of
  // the sweep, so the full contract is always on (not just a DCHECK).
  validate_plan(plan, base_->num_rows(), 1e-9, "ThrottledView::reset_plan");
  plan_ = std::move(plan);
}

void ThrottledView::pull(std::span<const f64> x, std::span<f64> y) const {
  const NodeId n = num_rows();
  SRSR_CHECK(x.size() == n && y.size() == n,
             "ThrottledView::pull: size mismatch");
  const f64* const scale = plan_.off_scale.data();
  const f64* const diag = plan_.diagonal.data();
  // srsr:hot throttled-pull
  parallel_for(0, n, [&](std::size_t v) {
    const auto cs = pull_->row_cols(static_cast<NodeId>(v));
    const auto ws = pull_->row_weights(static_cast<NodeId>(v));
    f64 acc = 0.0;
    for (std::size_t i = 0; i < cs.size(); ++i) {
      const NodeId u = cs[i];
      // Off-diagonal entries of origin row u are rescaled by scale[u];
      // the diagonal is overridden wholesale below (it may exist even
      // where the base pattern has no self entry).
      if (u != static_cast<NodeId>(v)) acc += x[u] * scale[u] * ws[i];
    }
    y[v] = acc + x[v] * diag[v];
  });
  // srsr:endhot
}

f64 ThrottledView::pull_off_diagonal(NodeId v, std::span<const f64> x) const {
  SRSR_DCHECK(v < num_rows() && x.size() == num_rows(),
              "ThrottledView::pull_off_diagonal: row ", v, " of ",
              num_rows(), ", x has ", x.size(), " entries");
  const auto cs = pull_->row_cols(v);
  const auto ws = pull_->row_weights(v);
  const f64* const scale = plan_.off_scale.data();
  f64 acc = 0.0;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const NodeId u = cs[i];
    if (u != v) acc += x[u] * scale[u] * ws[i];
  }
  return acc;
}

}  // namespace srsr::rank
