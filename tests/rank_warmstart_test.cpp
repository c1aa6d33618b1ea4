// Tests for warm-started solves (SolverConfig::initial): the fixed
// point is unchanged; iteration counts drop when restarting near the
// solution.
#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "rank/pagerank.hpp"
#include "rank/solvers.hpp"
#include "util/rng.hpp"
#include "test_graphs.hpp"

namespace srsr::rank {
namespace {

SolverConfig pr_tight() {
  SolverConfig cfg;
  cfg.convergence.tolerance = 1e-11;
  cfg.convergence.max_iterations = 5000;
  return cfg;
}

TEST(WarmStart, SameFixedPointAsColdStart) {
  Pcg32 rng(91);
  const auto g = graph::erdos_renyi(100, 0.05, rng);
  const auto cold = pagerank(g, pr_tight());
  SolverConfig warm_cfg = pr_tight();
  // Start from a wildly non-uniform (but valid) vector.
  std::vector<f64> init(g.num_nodes(), 0.0);
  init[0] = 1.0;
  warm_cfg.initial = init;
  const auto warm = pagerank(g, warm_cfg);
  for (std::size_t i = 0; i < cold.scores.size(); ++i)
    EXPECT_NEAR(cold.scores[i], warm.scores[i], 1e-8);
}

TEST(WarmStart, RestartingAtSolutionConvergesImmediately) {
  Pcg32 rng(92);
  const auto g = graph::erdos_renyi(100, 0.05, rng);
  const auto cold = pagerank(g, pr_tight());
  SolverConfig warm_cfg = pr_tight();
  warm_cfg.initial = cold.scores;
  const auto warm = pagerank(g, warm_cfg);
  EXPECT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, 3u);
}

TEST(WarmStart, FewerIterationsAfterSmallEdit) {
  // The attack-harness access pattern: re-rank after adding a handful
  // of edges, warm-started from the previous solution.
  Pcg32 rng(93);
  const auto g = graph::erdos_renyi(300, 0.03, rng);
  const auto base = pagerank(g, pr_tight());
  graph::GraphBuilder b(g);
  for (const NodeId u : {1, 2, 3}) b.add_edge(u, 0);
  const auto edited = b.build();
  const auto cold = pagerank(edited, pr_tight());
  SolverConfig warm_cfg = pr_tight();
  warm_cfg.initial = base.scores;
  const auto warm = pagerank(edited, warm_cfg);
  EXPECT_TRUE(warm.converged);
  EXPECT_LT(warm.iterations, cold.iterations);
  for (std::size_t i = 0; i < cold.scores.size(); ++i)
    EXPECT_NEAR(cold.scores[i], warm.scores[i], 1e-8);
}

TEST(WarmStart, UnnormalizedInitialIsNormalized) {
  const auto g = graph::cycle(5);
  SolverConfig a = pr_tight(), b = pr_tight();
  a.initial = std::vector<f64>{1, 1, 1, 1, 1};
  b.initial = std::vector<f64>{10, 10, 10, 10, 10};
  const auto ra = pagerank(g, a);
  const auto rb = pagerank(g, b);
  EXPECT_EQ(ra.iterations, rb.iterations);
}

TEST(WarmStart, RejectsInvalidInitialVectors) {
  const auto g = graph::cycle(3);
  SolverConfig cfg;
  cfg.initial = std::vector<f64>{1.0, 1.0};  // wrong size
  EXPECT_THROW(pagerank(g, cfg), Error);
  cfg.initial = std::vector<f64>{0.0, 0.0, 0.0};  // no mass
  EXPECT_THROW(pagerank(g, cfg), Error);
  cfg.initial = std::vector<f64>{1.0, -1.0, 1.0};  // negative
  EXPECT_THROW(pagerank(g, cfg), Error);
}

TEST(WarmStart, WeightedSolversSupportInitialToo) {
  Pcg32 rng(94);
  const auto g = fixture::with_self_loops(graph::erdos_renyi(80, 0.06, rng));
  const auto m = StochasticMatrix::uniform_from_graph(g);
  SolverConfig sc;
  sc.convergence.tolerance = 1e-11;
  sc.convergence.max_iterations = 5000;
  const auto cold = power_solve(m, sc);
  SolverConfig warm = sc;
  warm.initial = cold.scores;
  const auto restarted = power_solve(m, warm);
  EXPECT_LE(restarted.iterations, 3u);
  for (std::size_t i = 0; i < cold.scores.size(); ++i)
    EXPECT_NEAR(cold.scores[i], restarted.scores[i], 1e-9);

  SolverConfig bad = sc;
  bad.initial = std::vector<f64>{1.0};
  EXPECT_THROW(power_solve(m, bad), Error);
}

}  // namespace
}  // namespace srsr::rank
