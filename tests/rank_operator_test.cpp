// Tests for ThrottledView (rank/operator.hpp), the one operator the
// solvers iterate: it must reproduce the per-row affine reweighting it
// encodes — under identity_plan(B), B itself — every solver must accept
// it, and concurrent reads of a shared view must be race-free (this
// suite runs under the tsan preset).
#include "rank/operator.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "rank/push.hpp"
#include "rank/solvers.hpp"

namespace srsr::rank {
namespace {

// Row 0: self 0.2 + out-edges; rows 1-2: pure self-loops.
StochasticMatrix sample() {
  return StochasticMatrix({0, 3, 4, 5}, {0, 1, 2, 1, 2},
                          {0.2, 0.5, 0.3, 1.0, 1.0});
}

// A_rc = off_scale[r]*B_rc (c != r), A_rr = diagonal[r]; dense
// reference evaluation for small matrices.
f64 plan_entry(const StochasticMatrix& base, const RowAffinePlan& plan,
               NodeId r, NodeId c) {
  if (r == c) return plan.diagonal[r];
  return plan.off_scale[r] * base.weight(r, c);
}

// Row 0: self 0.2 + out-edges; row 1: no self entry and a 0.3
// deficit; row 2: pure self-loop; row 3: dangling.
StochasticMatrix identity_sample() {
  return StochasticMatrix({0, 3, 5, 6, 6}, {0, 1, 2, 0, 2, 2},
                          {0.2, 0.5, 0.3, 0.4, 0.3, 1.0});
}

RowAffinePlan half_plan() {
  // Row 0 throttled to diag 0.5 with off-edges rescaled by 0.625
  // (= (1-0.5)/0.8); rows 1-2 untouched pure self-loops.
  RowAffinePlan plan;
  plan.off_scale = {0.625, 1.0, 1.0};
  plan.diagonal = {0.5, 1.0, 1.0};
  plan.deficit = {0.0, 0.0, 0.0};
  return plan;
}

TEST(ThrottledView, PullMatchesDenseReference) {
  // The throttle-shaped plan, and the identity plan over a matrix with
  // a self-less row and a dangling row, where the view must reproduce
  // the matrix itself: pull == left_multiply, deficits == row_deficits.
  const auto throttled_base = sample();
  const auto identity_base = identity_sample();
  const struct {
    const StochasticMatrix* base;
    RowAffinePlan plan;
    std::vector<f64> x;
  } inputs[] = {
      {&throttled_base, half_plan(), {0.5, 0.3, 0.2}},
      {&identity_base, identity_plan(identity_base), {0.4, 0.3, 0.2, 0.1}},
  };
  for (const auto& in : inputs) {
    const StochasticMatrix& base = *in.base;
    const NodeId n = base.num_rows();
    const auto t = base.transpose();
    const ThrottledView view(base, t, in.plan);
    EXPECT_EQ(view.num_rows(), n);
    EXPECT_EQ(view.num_entries(), base.num_entries());
    EXPECT_EQ(view.deficits(), in.plan.deficit);
    std::vector<f64> got(n, 0.0);
    view.pull(in.x, got);
    for (NodeId v = 0; v < n; ++v) {
      f64 want = 0.0;
      for (NodeId u = 0; u < n; ++u)
        want += in.x[u] * plan_entry(base, view.plan(), u, v);
      EXPECT_NEAR(got[v], want, 1e-15);
      EXPECT_NEAR(view.pull_off_diagonal(v, in.x) + in.x[v] * view.diagonal(v),
                  got[v], 1e-15);
    }
    if (in.base != &identity_base) continue;
    std::vector<f64> want(n, 0.0);
    base.left_multiply(in.x, want);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_NEAR(got[v], want[v], 1e-15);
      EXPECT_DOUBLE_EQ(view.diagonal(v), base.weight(v, v));
    }
    EXPECT_EQ(view.deficits(), base.row_deficits());
  }
  const std::vector<f64> deficits = identity_plan(identity_base).deficit;
  EXPECT_NEAR(deficits[0], 0.0, 1e-15);
  EXPECT_NEAR(deficits[1], 0.3, 1e-15);
  EXPECT_NEAR(deficits[2], 0.0, 1e-15);
  EXPECT_NEAR(deficits[3], 1.0, 1e-15);
}

// Push reads base rows and applies the plan itself: over the view it
// must solve the same system as over the materialized A.
void expect_push_matches(const ThrottledView& view,
                         const StochasticMatrix& materialized) {
  PushConfig pc;
  pc.epsilon = 1e-15;
  const PushResult via_view = push_solve(view, pc);
  const PushResult via_matrix = push_solve(materialized, pc);
  ASSERT_TRUE(via_view.converged);
  ASSERT_TRUE(via_matrix.converged);
  SolverConfig sc;
  sc.convergence.tolerance = 1e-14;
  const RankResult jacobi = jacobi_solve(materialized, sc);
  for (NodeId v = 0; v < view.num_rows(); ++v) {
    EXPECT_NEAR(via_view.scores[v], via_matrix.scores[v], 1e-14);
    EXPECT_NEAR(via_view.scores[v], jacobi.scores[v], 1e-10);
  }
}

TEST(ThrottledView, PushOverridesDiagonalInPlace) {
  const auto base = sample();
  const auto t = base.transpose();
  const ThrottledView view(base, t, half_plan());
  // half_plan() applied to sample(): diagonal overridden, row 0's
  // off-diagonal entries rescaled by 0.625.
  const StochasticMatrix throttled({0, 3, 4, 5}, {0, 1, 2, 1, 2},
                                   {0.5, 0.5 * 0.625, 0.3 * 0.625, 1.0, 1.0});
  expect_push_matches(view, throttled);

  // Under the identity plan the view is the base matrix itself, self-less
  // and dangling rows included: the same rows under the same plan.
  const auto ibase = identity_sample();
  const auto it = ibase.transpose();
  const ThrottledView identity(ibase, it, identity_plan(ibase));
  PushConfig pc;
  pc.epsilon = 1e-15;
  EXPECT_EQ(push_solve(identity, pc).scores, push_solve(ibase, pc).scores);
}

TEST(ThrottledView, PushHonorsDiagonalMissingFromBase) {
  // Row 0 has no self entry; the plan gives it a 0.5 diagonal. Row 1's
  // base self entry is overridden to 0.
  const StochasticMatrix base({0, 1, 3}, {1, 0, 1}, {1.0, 0.5, 0.5});
  const auto t = base.transpose();
  RowAffinePlan plan;
  plan.off_scale = {0.5, 1.0};
  plan.diagonal = {0.5, 0.0};
  plan.deficit = {0.0, 0.5};
  const ThrottledView view(base, t, std::move(plan));
  const StochasticMatrix spliced({0, 2, 3}, {0, 1, 0}, {0.5, 0.5, 0.5});
  expect_push_matches(view, spliced);
}

TEST(ThrottledView, ResetPlanSwapsConfigurations) {
  const auto base = sample();
  const auto t = base.transpose();
  ThrottledView view(base, t, half_plan());
  EXPECT_DOUBLE_EQ(view.diagonal(0), 0.5);
  view.reset_plan(identity_plan(base));
  EXPECT_DOUBLE_EQ(view.diagonal(0), 0.2);
  const std::vector<f64> x{0.5, 0.3, 0.2};
  std::vector<f64> via_view(3, 0.0);
  view.pull(x, via_view);
  std::vector<f64> via_base(3, 0.0);
  base.left_multiply(x, via_base);
  for (NodeId v = 0; v < 3; ++v)
    EXPECT_NEAR(via_view[v], via_base[v], 1e-15);
}

TEST(ThrottledView, SolversAcceptTheOperatorForm) {
  const auto base = sample();
  const auto t = base.transpose();
  const ThrottledView view(base, t, half_plan());
  SolverConfig sc;
  sc.convergence.tolerance = 1e-13;
  const RankResult power = power_solve(view, sc);
  EXPECT_TRUE(power.converged);
  const RankResult gs = gauss_seidel_solve(view, sc);
  EXPECT_TRUE(gs.converged);
  PushConfig pc;
  pc.epsilon = 1e-14;
  const PushResult push = push_solve(view, pc);
  EXPECT_TRUE(push.converged);
  // All three solve the same system up to deficit handling; this plan
  // has none, so the vectors agree.
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_NEAR(power.scores[v], gs.scores[v], 1e-8);
    EXPECT_NEAR(power.scores[v], push.scores[v], 1e-8);
  }

  // The matrix overloads are the operator form under identity_plan.
  const ThrottledView identity(base, t, identity_plan(base));
  EXPECT_EQ(power_solve(base, sc).scores, power_solve(identity, sc).scores);
  EXPECT_EQ(jacobi_solve(base, sc).scores, jacobi_solve(identity, sc).scores);
  EXPECT_EQ(gauss_seidel_solve(base, sc).scores,
            gauss_seidel_solve(identity, sc).scores);
}

// tsan target: a shared view must serve concurrent pulls without
// synchronization (all state is const after construction). std::thread
// rather than OpenMP so the race checker instruments the threads.
TEST(ThrottledView, ConcurrentPullsAreRaceFree) {
  const auto base = sample();
  const auto t = base.transpose();
  const ThrottledView view(base, t, half_plan());
  const std::vector<f64> x{0.5, 0.3, 0.2};
  std::vector<f64> first(3, 0.0);
  view.pull(x, first);

  std::vector<std::vector<f64>> outs(4, std::vector<f64>(3, 0.0));
  std::vector<std::thread> workers;
  workers.reserve(outs.size());
  for (auto& out : outs)
    workers.emplace_back([&view, &x, &out] {
      for (int rep = 0; rep < 100; ++rep) view.pull(x, out);
    });
  for (auto& w : workers) w.join();
  for (const auto& out : outs)
    for (NodeId v = 0; v < 3; ++v) EXPECT_DOUBLE_EQ(out[v], first[v]);
}

}  // namespace
}  // namespace srsr::rank
