// Tests for the Gauss-Seidel solver (gauss_seidel_solve in rank/solvers.hpp).
#include "rank/solvers.hpp"

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "core/source_graph.hpp"
#include "graph/generators.hpp"
#include "graph/transforms.hpp"
#include "graph/webgen.hpp"
#include "util/rng.hpp"

namespace srsr::rank {
namespace {

SolverConfig tight() {
  SolverConfig cfg;
  cfg.convergence.tolerance = 1e-12;
  cfg.convergence.max_iterations = 5000;
  return cfg;
}

TEST(GaussSeidel, EmptyMatrix) {
  const auto r = gauss_seidel_solve(StochasticMatrix(), tight());
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.scores.empty());
}

TEST(GaussSeidel, MatchesJacobiOnAugmentedMatrices) {
  Pcg32 rng(201);
  const auto g = graph::add_self_loops(graph::erdos_renyi(70, 0.06, rng));
  const auto m = StochasticMatrix::uniform_from_graph(g);
  const auto gs = gauss_seidel_solve(m, tight());
  const auto jc = jacobi_solve(m, tight());
  ASSERT_TRUE(gs.converged);
  for (std::size_t i = 0; i < gs.scores.size(); ++i)
    EXPECT_NEAR(gs.scores[i], jc.scores[i], 1e-9);
}

TEST(GaussSeidel, MatchesJacobiWithDanglingRows) {
  // Both evaporate deficit mass, so they agree even with dangling rows.
  const auto m = StochasticMatrix::uniform_from_graph(graph::path(6));
  const auto gs = gauss_seidel_solve(m, tight());
  const auto jc = jacobi_solve(m, tight());
  for (std::size_t i = 0; i < gs.scores.size(); ++i)
    EXPECT_NEAR(gs.scores[i], jc.scores[i], 1e-9);
}

TEST(GaussSeidel, FewerSweepsThanJacobiOnSlowMixingMatrices) {
  // GS's advantage materializes on slowly-mixing web-like matrices
  // (strong self-mass, locality); fast-mixing ER matrices can even
  // favor Jacobi. Build a source-consensus matrix from a small corpus.
  graph::WebGenConfig wc;
  wc.num_sources = 400;
  wc.seed = 4321;
  const auto corpus = graph::generate_web_corpus(wc);
  const core::SourceMap map = core::SourceMap::from_corpus(corpus);
  const core::SourceGraph sg(corpus.pages, map);
  const auto m = sg.consensus_matrix(true);
  SolverConfig cfg;
  cfg.convergence.tolerance = 1e-9;
  cfg.convergence.max_iterations = 5000;
  const auto gs = gauss_seidel_solve(m, cfg);
  const auto jc = jacobi_solve(m, cfg);
  EXPECT_LT(gs.iterations, jc.iterations);
  for (std::size_t i = 0; i < gs.scores.size(); ++i)
    EXPECT_NEAR(gs.scores[i], jc.scores[i], 1e-6);
}

TEST(GaussSeidel, HandlesHeavySelfLoops) {
  // A row with self-weight 0.99 stresses the implicit diagonal solve.
  const StochasticMatrix m({0, 2, 3}, {0, 1, 0}, {0.99, 0.01, 1.0});
  const auto gs = gauss_seidel_solve(m, tight());
  const auto jc = jacobi_solve(m, tight());
  ASSERT_TRUE(gs.converged);
  for (std::size_t i = 0; i < gs.scores.size(); ++i)
    EXPECT_NEAR(gs.scores[i], jc.scores[i], 1e-9);
}

TEST(GaussSeidel, CustomTeleportAndInitial) {
  const auto m = StochasticMatrix::uniform_from_graph(graph::cycle(5));
  SolverConfig cfg = tight();
  cfg.teleport = std::vector<f64>{1.0, 0.0, 0.0, 0.0, 0.0};
  const auto biased = gauss_seidel_solve(m, cfg);
  EXPECT_GT(biased.scores[0], biased.scores[3]);
  cfg.initial = biased.scores;  // restart at the solution
  const auto restarted = gauss_seidel_solve(m, cfg);
  EXPECT_LE(restarted.iterations, 3u);
}

TEST(GaussSeidel, RejectsBadConfig) {
  const auto m = StochasticMatrix::uniform_from_graph(graph::cycle(3));
  SolverConfig cfg;
  cfg.alpha = 1.0;
  EXPECT_THROW(gauss_seidel_solve(m, cfg), Error);
  cfg.alpha = 0.85;
  cfg.teleport = std::vector<f64>{1.0};
  EXPECT_THROW(gauss_seidel_solve(m, cfg), Error);
}

}  // namespace
}  // namespace srsr::rank
