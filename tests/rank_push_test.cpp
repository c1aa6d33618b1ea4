// Tests for residual push (rank/push.hpp): full and local solves, the
// closed-form self-loop, and both frontier orders (FIFO and dense
// id-order sweeps). Incremental maintenance through push_continue is
// covered by stream_incremental_test (IncrementalRanker).
#include "rank/push.hpp"

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/transforms.hpp"
#include "rank/operator.hpp"
#include "rank/solvers.hpp"
#include "util/rng.hpp"

namespace srsr::rank {
namespace {

PushConfig push_tight() {
  PushConfig cfg;
  cfg.epsilon = 1e-13;
  return cfg;
}

SolverConfig solver_tight() {
  SolverConfig cfg;
  cfg.convergence.tolerance = 1e-13;
  cfg.convergence.max_iterations = 10000;
  return cfg;
}

TEST(PushSolve, MatchesJacobiOnAugmentedMatrix) {
  Pcg32 rng(301);
  const auto g = graph::add_self_loops(graph::erdos_renyi(60, 0.08, rng));
  const auto m = StochasticMatrix::uniform_from_graph(g);
  const auto push = push_solve(m, push_tight());
  const auto jacobi = jacobi_solve(m, solver_tight());
  ASSERT_TRUE(push.converged);
  for (std::size_t i = 0; i < push.scores.size(); ++i)
    EXPECT_NEAR(push.scores[i], jacobi.scores[i], 1e-8);
}

TEST(PushSolve, MatchesJacobiWithDanglingRows) {
  const auto m = StochasticMatrix::uniform_from_graph(graph::path(6));
  const auto push = push_solve(m, push_tight());
  const auto jacobi = jacobi_solve(m, solver_tight());
  for (std::size_t i = 0; i < push.scores.size(); ++i)
    EXPECT_NEAR(push.scores[i], jacobi.scores[i], 1e-8);
}

TEST(PushSolve, CycleIsUniform) {
  const auto m = StochasticMatrix::uniform_from_graph(graph::cycle(8));
  const auto r = push_solve(m, push_tight());
  for (const f64 v : r.scores) EXPECT_NEAR(v, 0.125, 1e-9);
}

TEST(PushSolve, LocalSeedTouchesOnlyReachableNodes) {
  // Two disconnected cycles; seeding in the first must never push in
  // the second.
  graph::GraphBuilder b(20);
  for (NodeId u = 0; u < 10; ++u) b.add_edge(u, (u + 1) % 10);
  for (NodeId u = 10; u < 20; ++u) b.add_edge(u, 10 + (u - 10 + 1) % 10);
  const auto m = StochasticMatrix::uniform_from_graph(b.build());
  PushConfig cfg = push_tight();
  cfg.teleport = std::vector<f64>(20, 0.0);
  (*cfg.teleport)[0] = 1.0;
  const auto r = push_solve(m, cfg);
  EXPECT_LE(r.touched, 10u);
  for (NodeId u = 10; u < 20; ++u) EXPECT_DOUBLE_EQ(r.scores[u], 0.0);
}

TEST(PushSolve, WorkScalesWithLocality) {
  // A uniform seed must touch everything; a point seed with modest
  // accuracy touches a neighborhood.
  Pcg32 rng(302);
  const auto g = graph::add_self_loops(graph::erdos_renyi(500, 0.01, rng));
  const auto m = StochasticMatrix::uniform_from_graph(g);
  PushConfig local;
  local.epsilon = 1e-6;
  local.teleport = std::vector<f64>(500, 0.0);
  (*local.teleport)[7] = 1.0;
  const auto local_run = push_solve(m, local);
  PushConfig global = local;
  global.teleport.reset();
  const auto global_run = push_solve(m, global);
  EXPECT_LT(local_run.pushes, global_run.pushes);
}

TEST(PushSolve, MaxPushCapStopsEarly) {
  // Uniform seed: all 50 rows start active, so the cap lands inside a
  // dense-frontier sweep.
  const auto m = StochasticMatrix::uniform_from_graph(graph::cycle(50));
  PushConfig cfg = push_tight();
  cfg.max_pushes = 10;
  const auto r = push_solve(m, cfg);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.pushes, 10u);
  EXPECT_GT(r.max_residual, 0.0);
}

TEST(PushSolve, HeavySelfLoopsMatchJacobi) {
  // Diagonal 0.99 on every row: a FIFO push would settle 1% of a row's
  // residual per visit; the closed form settles it in one.
  Pcg32 rng(303);
  const auto g = graph::add_self_loops(graph::erdos_renyi(60, 0.08, rng));
  const auto base = StochasticMatrix::uniform_from_graph(g);
  const auto t = base.transpose();
  const RowAffinePlan identity = identity_plan(base);
  RowAffinePlan plan;
  for (NodeId u = 0; u < base.num_rows(); ++u) {
    const f64 off = 1.0 - identity.diagonal[u];
    plan.off_scale.push_back(off > 0.0 ? 0.01 / off : 0.0);
    plan.diagonal.push_back(0.99);
    plan.deficit.push_back(off > 0.0 ? 0.0 : 0.01);
  }
  const ThrottledView view(base, t, std::move(plan));
  PushConfig pc;
  pc.epsilon = 1e-15;
  const auto push = push_solve(view, pc);
  const auto jacobi = jacobi_solve(view, solver_tight());
  ASSERT_TRUE(push.converged);
  ASSERT_TRUE(jacobi.converged);
  for (std::size_t i = 0; i < push.scores.size(); ++i)
    EXPECT_NEAR(push.scores[i], jacobi.scores[i], 1e-10);
}

TEST(PushSolve, SelfLessBaseRowsMatchMaterializedPlan) {
  // Absorb-style plan over a base without self entries: push reads the
  // base rows and must still apply the plan's diagonal, exactly as the
  // materialized throttled matrix spells it out.
  Pcg32 rng(304);
  const auto base =
      StochasticMatrix::uniform_from_graph(graph::erdos_renyi(80, 0.06, rng));
  const auto t = base.transpose();
  RowAffinePlan plan;
  std::vector<std::vector<std::pair<NodeId, f64>>> rows(base.num_rows());
  for (NodeId u = 0; u < base.num_rows(); ++u) {
    const f64 kappa = rng.next_real();
    const bool dangling = base.row_cols(u).empty();
    plan.off_scale.push_back(1.0 - kappa);
    plan.diagonal.push_back(dangling ? 1.0 : kappa);
    plan.deficit.push_back(0.0);
    const auto cs = base.row_cols(u);
    const auto ws = base.row_weights(u);
    bool self_written = false;
    for (std::size_t i = 0; i < cs.size(); ++i) {
      ASSERT_NE(cs[i], u);
      if (!self_written && cs[i] > u) {
        rows[u].emplace_back(u, plan.diagonal[u]);
        self_written = true;
      }
      rows[u].emplace_back(cs[i], plan.off_scale[u] * ws[i]);
    }
    if (!self_written) rows[u].emplace_back(u, plan.diagonal[u]);
  }
  const auto throttled = StochasticMatrix::from_rows(base.num_rows(), rows);
  const ThrottledView view(base, t, std::move(plan));
  PushConfig pc;
  pc.epsilon = 1e-15;
  const auto via_view = push_solve(view, pc);
  const auto via_matrix = push_solve(throttled, pc);
  ASSERT_TRUE(via_view.converged);
  ASSERT_TRUE(via_matrix.converged);
  for (std::size_t i = 0; i < via_view.scores.size(); ++i)
    EXPECT_NEAR(via_view.scores[i], via_matrix.scores[i], 1e-12);
}

TEST(PushSolve, DenseFrontierSolveIsBitwiseRepeatable) {
  // A cold solve starts with every row active, so it runs id-order
  // sweeps before dropping back to FIFO; both orders are serial.
  Pcg32 rng(305);
  const auto g = graph::add_self_loops(graph::erdos_renyi(400, 0.02, rng));
  const auto m = StochasticMatrix::uniform_from_graph(g);
  const auto first = push_solve(m, push_tight());
  ASSERT_TRUE(first.converged);
  for (int rep = 0; rep < 3; ++rep) {
    const auto again = push_solve(m, push_tight());
    EXPECT_EQ(again.scores, first.scores);
    EXPECT_EQ(again.pushes, first.pushes);
  }
}

TEST(PushSolve, RejectsBadConfig) {
  const auto m = StochasticMatrix::uniform_from_graph(graph::cycle(3));
  PushConfig cfg;
  cfg.alpha = 1.0;
  EXPECT_THROW(push_solve(m, cfg), Error);
  cfg.alpha = 0.85;
  cfg.epsilon = 0.0;
  EXPECT_THROW(push_solve(m, cfg), Error);
}

}  // namespace
}  // namespace srsr::rank
