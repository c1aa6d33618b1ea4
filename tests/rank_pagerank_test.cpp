// Tests for PageRank (rank/pagerank.hpp) against closed-form solutions
// and structural invariants.
#include "rank/pagerank.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace srsr::rank {
namespace {

constexpr f64 kTol = 1e-7;  // solver tolerance 1e-9 => scores good to ~1e-8

SolverConfig tight() {
  SolverConfig cfg;
  cfg.convergence.tolerance = 1e-12;
  cfg.convergence.max_iterations = 5000;  // enough even for alpha = 0.99
  return cfg;
}

void expect_distribution(const std::vector<f64>& scores) {
  f64 sum = 0.0;
  for (const f64 v : scores) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PageRank, EmptyGraph) {
  const auto r = pagerank(graph::Graph());
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.scores.empty());
}

TEST(PageRank, CycleIsUniform) {
  const auto r = pagerank(graph::cycle(7), tight());
  ASSERT_TRUE(r.converged);
  expect_distribution(r.scores);
  for (const f64 v : r.scores) EXPECT_NEAR(v, 1.0 / 7.0, kTol);
}

TEST(PageRank, CompleteGraphIsUniform) {
  const auto r = pagerank(graph::complete(6), tight());
  ASSERT_TRUE(r.converged);
  for (const f64 v : r.scores) EXPECT_NEAR(v, 1.0 / 6.0, kTol);
}

TEST(PageRank, TwoNodeMutualIsHalfHalf) {
  graph::GraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  const auto r = pagerank(b.build(), tight());
  EXPECT_NEAR(r.scores[0], 0.5, kTol);
  EXPECT_NEAR(r.scores[1], 0.5, kTol);
}

TEST(PageRank, BidirectionalStarClosedForm) {
  // Hub 0 and n-1 leaves, alpha = 0.85:
  //   pi_h = t*(1 + alpha*(n-1)) / (1 - alpha^2), t = (1-alpha)/n.
  const NodeId n = 11;
  const f64 alpha = 0.85;
  const auto r = pagerank(graph::star(n, /*bidirectional=*/true), tight());
  ASSERT_TRUE(r.converged);
  const f64 t = (1.0 - alpha) / static_cast<f64>(n);
  const f64 hub = t * (1.0 + alpha * (n - 1)) / (1.0 - alpha * alpha);
  EXPECT_NEAR(r.scores[0], hub, kTol);
  const f64 leaf = (1.0 - hub) / static_cast<f64>(n - 1);
  for (NodeId u = 1; u < n; ++u) EXPECT_NEAR(r.scores[u], leaf, kTol);
}

TEST(PageRank, TwoNodePathWithDanglingClosedForm) {
  // 0 -> 1, node 1 dangles. Dangling mass redistributes uniformly.
  // Solving by hand for alpha = 0.85: pi = (0.350877..., 0.649122...).
  const auto r = pagerank(graph::path(2), tight());
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.scores[0], 0.3508771929824561, 1e-9);
  EXPECT_NEAR(r.scores[1], 0.6491228070175439, 1e-9);
}

TEST(PageRank, AlphaZeroIsTeleportOnly) {
  SolverConfig cfg = tight();
  cfg.alpha = 0.0;
  const auto r = pagerank(graph::path(5), cfg);
  for (const f64 v : r.scores) EXPECT_NEAR(v, 0.2, kTol);
}

TEST(PageRank, RejectsAlphaOne) {
  SolverConfig cfg;
  cfg.alpha = 1.0;
  EXPECT_THROW(pagerank(graph::cycle(3), cfg), Error);
}

TEST(PageRank, ScoresAreDistributionOnRandomGraph) {
  Pcg32 rng(41);
  const auto g = graph::erdos_renyi(200, 0.03, rng);
  const auto r = pagerank(g, tight());
  ASSERT_TRUE(r.converged);
  expect_distribution(r.scores);
}

TEST(PageRank, MoreInlinksMeansMoreRank) {
  // Node 1 receives every leaf link; node 2 receives one.
  graph::GraphBuilder b(10);
  for (NodeId u = 3; u < 10; ++u) b.add_edge(u, 1);
  b.add_edge(0, 2);
  const auto r = pagerank(b.build(), tight());
  EXPECT_GT(r.scores[1], r.scores[2]);
  EXPECT_GT(r.scores[2], r.scores[3]);
}

TEST(PageRank, PermutationEquivariance) {
  Pcg32 rng(42);
  const auto g = graph::erdos_renyi(60, 0.08, rng);
  const auto base = pagerank(g, tight());
  // Relabel node u -> (u + 7) mod n.
  const NodeId n = g.num_nodes();
  graph::GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u)
    for (const NodeId v : g.out_neighbors(u))
      b.add_edge((u + 7) % n, (v + 7) % n);
  const auto relabeled = pagerank(b.build(), tight());
  for (NodeId u = 0; u < n; ++u)
    EXPECT_NEAR(base.scores[u], relabeled.scores[(u + 7) % n], 1e-9);
}

TEST(PageRank, PersonalizedTeleportBiasesScores) {
  // Teleport only to node 0 in a cycle: node 0 must dominate.
  const auto g = graph::cycle(10);
  SolverConfig cfg = tight();
  cfg.teleport = std::vector<f64>(10, 0.0);
  (*cfg.teleport)[0] = 1.0;
  const auto r = pagerank(g, cfg);
  expect_distribution(r.scores);
  EXPECT_GT(r.scores[0], r.scores[5]);
  // Scores decay monotonically with distance from the teleport node.
  for (NodeId u = 0; u + 1 < 10; ++u)
    EXPECT_GT(r.scores[u], r.scores[u + 1]);
}

TEST(PageRank, TeleportValidation) {
  SolverConfig cfg;
  cfg.teleport = std::vector<f64>{0.5, 0.5, 0.0};  // wrong size for cycle(2)
  EXPECT_THROW(pagerank(graph::cycle(2), cfg), Error);
  cfg.teleport = std::vector<f64>{0.0, 0.0};
  EXPECT_THROW(pagerank(graph::cycle(2), cfg), Error);
  cfg.teleport = std::vector<f64>{1.0, -1.0};
  EXPECT_THROW(pagerank(graph::cycle(2), cfg), Error);
}

TEST(PageRank, UnnormalizedTeleportIsNormalized) {
  SolverConfig a = tight(), b = tight();
  a.teleport = std::vector<f64>{1.0, 1.0, 1.0};
  b.teleport = std::vector<f64>{10.0, 10.0, 10.0};
  const auto g = graph::cycle(3);
  const auto ra = pagerank(g, a);
  const auto rb = pagerank(g, b);
  for (NodeId u = 0; u < 3; ++u) EXPECT_NEAR(ra.scores[u], rb.scores[u], 1e-12);
}

TEST(PageRank, ReportsIterationsAndResidual) {
  const auto r = pagerank(graph::cycle(5), tight());
  EXPECT_GT(r.iterations, 0u);
  EXPECT_LT(r.residual, 1e-12);
  EXPECT_TRUE(r.converged);
}

TEST(PageRank, HitsIterationCapWithoutConvergence) {
  SolverConfig cfg;
  cfg.convergence.tolerance = 0.0;  // unreachable
  cfg.convergence.max_iterations = 5;
  const auto r = pagerank(graph::cycle(5), cfg);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 5u);
}

TEST(PageRank, SolverReuseAcrossConfigs) {
  Pcg32 rng(43);
  const auto g = graph::erdos_renyi(50, 0.1, rng);
  const PageRank solver(g);
  SolverConfig c1 = tight();
  SolverConfig c2 = tight();
  c2.alpha = 0.5;
  const auto r1 = solver.solve(c1);
  const auto r2 = solver.solve(c2);
  expect_distribution(r1.scores);
  expect_distribution(r2.scores);
  // Lower alpha flattens toward uniform.
  const f64 n = g.num_nodes();
  f64 dev1 = 0.0, dev2 = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    dev1 += std::abs(r1.scores[u] - 1.0 / n);
    dev2 += std::abs(r2.scores[u] - 1.0 / n);
  }
  EXPECT_GT(dev1, dev2);
}

// Parameterized sweep over alpha: all invariants hold.
class PageRankAlphaSweep : public ::testing::TestWithParam<f64> {};

TEST_P(PageRankAlphaSweep, DistributionAndConvergence) {
  Pcg32 rng(44);
  const auto g = graph::erdos_renyi(100, 0.05, rng);
  SolverConfig cfg = tight();
  cfg.alpha = GetParam();
  const auto r = pagerank(g, cfg);
  EXPECT_TRUE(r.converged);
  expect_distribution(r.scores);
}

INSTANTIATE_TEST_SUITE_P(Alphas, PageRankAlphaSweep,
                         ::testing::Values(0.0, 0.5, 0.8, 0.85, 0.9, 0.99));

}  // namespace
}  // namespace srsr::rank
