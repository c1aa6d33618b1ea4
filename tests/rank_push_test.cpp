// Tests for Gauss-Southwell residual push (rank/push.hpp): full and
// local solves. Incremental maintenance through push_continue is
// covered by stream_incremental_test (IncrementalRanker).
#include "rank/push.hpp"

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/transforms.hpp"
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
  const auto m = StochasticMatrix::uniform_from_graph(graph::cycle(50));
  PushConfig cfg = push_tight();
  cfg.max_pushes = 10;
  const auto r = push_solve(m, cfg);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.pushes, 10u);
  EXPECT_GT(r.max_residual, 0.0);
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
