// Tests for the weighted power / Jacobi solvers (rank/solvers.hpp).
#include "rank/solvers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/transforms.hpp"
#include "rank/pagerank.hpp"
#include "rank/push.hpp"
#include "util/rng.hpp"

namespace srsr::rank {
namespace {

SolverConfig tight() {
  SolverConfig cfg;
  cfg.convergence.tolerance = 1e-12;
  cfg.convergence.max_iterations = 5000;
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

TEST(PowerSolve, MatchesUnweightedPageRank) {
  Pcg32 rng(51);
  const auto g = graph::erdos_renyi(120, 0.05, rng);
  const auto m = StochasticMatrix::uniform_from_graph(g);
  const auto weighted = power_solve(m, tight());
  SolverConfig pr;
  pr.convergence.tolerance = 1e-12;
  pr.convergence.max_iterations = 5000;
  const auto unweighted = pagerank(g, pr);
  ASSERT_EQ(weighted.scores.size(), unweighted.scores.size());
  for (std::size_t i = 0; i < weighted.scores.size(); ++i)
    EXPECT_NEAR(weighted.scores[i], unweighted.scores[i], 1e-10);
}

TEST(PowerSolve, EmptyMatrix) {
  const auto r = power_solve(StochasticMatrix(), tight());
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.scores.empty());
}

TEST(PowerSolve, WeightedTwoNodeClosedForm) {
  // Row 0: all mass to 1. Row 1: 0.6 self, 0.4 to 0. alpha = 0.85.
  // pi_0 = a*0.4*pi_1 + t; pi_1 = a*pi_0 + a*0.6*pi_1 + t  (t = 0.075)
  const StochasticMatrix m({0, 1, 3}, {1, 0, 1}, {1.0, 0.4, 0.6});
  const auto r = power_solve(m, tight());
  // Solve: pi_1 = (a*pi_0 + t)/(1 - 0.6a); pi_0 = 0.4a*pi_1 + t
  // => pi_0 = (0.4a*t + t(1-0.6a)) / (1 - 0.6a - 0.4a^2)
  const f64 a = 0.85, t = 0.075;
  const f64 pi0 = (0.4 * a * t + t * (1 - 0.6 * a)) / (1 - 0.6 * a - 0.4 * a * a);
  const f64 pi1 = (a * pi0 + t) / (1 - 0.6 * a);
  EXPECT_NEAR(r.scores[0], pi0 / (pi0 + pi1), 1e-9);
  EXPECT_NEAR(r.scores[1], pi1 / (pi0 + pi1), 1e-9);
}

TEST(PowerAndJacobi, AgreeWithoutDanglingRows) {
  Pcg32 rng(52);
  // Self-loops on every node guarantee no dangling rows.
  const auto g = graph::add_self_loops(graph::erdos_renyi(80, 0.05, rng));
  const auto m = StochasticMatrix::uniform_from_graph(g);
  ASSERT_TRUE(m.dangling_rows().empty());
  const auto p = power_solve(m, tight());
  const auto j = jacobi_solve(m, tight());
  for (std::size_t i = 0; i < p.scores.size(); ++i)
    EXPECT_NEAR(p.scores[i], j.scores[i], 1e-9);
}

TEST(PowerAndJacobi, ProportionalEvenOnDanglingRows) {
  // A classical identity: when deficit mass is re-routed to the SAME
  // teleport distribution the linear form uses, the completed (power)
  // and evaporating (Jacobi) solutions are scalar multiples of each
  // other — so after L1 normalization they coincide, dangling rows or
  // not. (Del Corso/Gulli/Romani-style equivalence.)
  const auto m = StochasticMatrix::uniform_from_graph(graph::path(5));
  const auto p = power_solve(m, tight());
  const auto j = jacobi_solve(m, tight());
  expect_distribution(p.scores);
  expect_distribution(j.scores);
  for (std::size_t i = 0; i < p.scores.size(); ++i)
    EXPECT_NEAR(p.scores[i], j.scores[i], 1e-9);
}

TEST(PowerSolve, SubstochasticRowDeficitGoesToTeleport) {
  // Row 0 keeps only 0.3 probability (0.7 deficit); the deficit mass
  // must reappear via teleport, keeping the iterate a distribution.
  const StochasticMatrix m({0, 1, 2}, {1, 0}, {0.3, 1.0});
  const auto deficits = m.row_deficits();
  EXPECT_NEAR(deficits[0], 0.7, 1e-12);
  EXPECT_NEAR(deficits[1], 0.0, 1e-12);
  const auto r = power_solve(m, tight());
  expect_distribution(r.scores);
  // Node 0 receives all of row 1 plus teleport; node 1 only 0.3 of
  // row 0 plus teleport: node 0 must dominate.
  EXPECT_GT(r.scores[0], r.scores[1]);
}

TEST(JacobiSolve, LinearFormClosedForm) {
  // Isolated self-loop source amid pure self-loops: the Sec. 4.1 model.
  // sigma_t = t / (1 - alpha*w) before normalization; ratios against a
  // pure self-loop reference (sigma = t/(1-alpha)) survive normalization.
  const f64 w = 0.6;
  const u32 n = 8;
  std::vector<std::vector<std::pair<NodeId, f64>>> rows(n);
  rows[0] = {{0, w}, {1, 1.0 - w}};  // target: self w, rest to node 1
  for (u32 r = 1; r < n; ++r) rows[r] = {{r, 1.0}};
  const auto m = StochasticMatrix::from_rows(n, rows);
  const auto res = jacobi_solve(m, tight());
  const f64 a = 0.85;
  // Reference node 7 receives nothing: sigma_7 = t/(1-a).
  const f64 expected_ratio = (1.0 - a) / (1.0 - a * w);
  EXPECT_NEAR(res.scores[0] / res.scores[7], expected_ratio, 1e-9);
}

TEST(Solvers, AlphaZeroGivesTeleport) {
  SolverConfig cfg = tight();
  cfg.alpha = 0.0;
  const auto m = StochasticMatrix::uniform_from_graph(graph::cycle(4));
  for (const f64 v : power_solve(m, cfg).scores) EXPECT_NEAR(v, 0.25, 1e-12);
  for (const f64 v : jacobi_solve(m, cfg).scores) EXPECT_NEAR(v, 0.25, 1e-12);
}

TEST(Solvers, CustomTeleportBias) {
  SolverConfig cfg = tight();
  cfg.teleport = std::vector<f64>{1.0, 0.0, 0.0, 0.0};
  const auto m = StochasticMatrix::uniform_from_graph(graph::cycle(4));
  const auto r = power_solve(m, cfg);
  EXPECT_GT(r.scores[0], r.scores[2]);
}

TEST(Solvers, RejectBadConfig) {
  const auto g = graph::cycle(3);
  const auto m = StochasticMatrix::uniform_from_graph(g);
  const StochasticMatrix mt = m.transpose();
  const ThrottledView view(m, mt, identity_plan(m));
  const PageRank pr(g);
  // Every public entry checks its own config: power, Jacobi and
  // Gauss-Seidel in both forms, PageRank and push.
  const std::vector<std::function<void(const SolverConfig&)>> solvers = {
      [&](const SolverConfig& c) { power_solve(m, c); },
      [&](const SolverConfig& c) { power_solve(view, c); },
      [&](const SolverConfig& c) { jacobi_solve(m, c); },
      [&](const SolverConfig& c) { jacobi_solve(view, c); },
      [&](const SolverConfig& c) { gauss_seidel_solve(m, c); },
      [&](const SolverConfig& c) { gauss_seidel_solve(view, c); },
      [&](const SolverConfig& c) { pr.solve(c); },
  };
  const auto push = [&](const SolverConfig& c) {
    PushConfig pc;
    pc.alpha = c.alpha;
    pc.teleport = c.teleport;
    push_solve(m, pc);
  };

  const f64 nan = std::numeric_limits<f64>::quiet_NaN();
  const std::vector<std::vector<f64>> bad_vectors = {
      {nan, 1.0, 1.0},   // not finite
      {-0.5, 1.0, 0.5},  // negative
      {0.0, 0.0, 0.0},   // zero mass
      {1.0},             // wrong size
  };
  for (const f64 alpha : {1.0, nan}) {
    SolverConfig cfg;
    cfg.alpha = alpha;
    for (const auto& solve : solvers) EXPECT_THROW(solve(cfg), Error);
    EXPECT_THROW(push(cfg), Error);
  }
  for (const auto& bad : bad_vectors) {
    SolverConfig teleport;
    teleport.teleport = bad;
    SolverConfig initial;
    initial.initial = bad;
    for (const auto& solve : solvers) {
      EXPECT_THROW(solve(teleport), Error);
      EXPECT_THROW(solve(initial), Error);
    }
    EXPECT_THROW(push(teleport), Error);
  }
  // The same configs with a valid vector pass every entry.
  SolverConfig good;
  good.teleport = std::vector<f64>{1.0, 2.0, 1.0};
  good.initial = std::vector<f64>{0.2, 0.3, 0.5};
  for (const auto& solve : solvers) EXPECT_NO_THROW(solve(good));
  EXPECT_NO_THROW(push(good));
}

// Property: power and Jacobi agree on *any* self-loop-augmented random
// web corpus matrix (no dangling rows by construction).
class SolverAgreement : public ::testing::TestWithParam<u64> {};

TEST_P(SolverAgreement, PowerEqualsJacobiOnAugmentedMatrices) {
  Pcg32 rng(GetParam());
  const auto g = graph::add_self_loops(graph::erdos_renyi(60, 0.06, rng));
  const auto m = StochasticMatrix::uniform_from_graph(g);
  const auto p = power_solve(m, tight());
  const auto j = jacobi_solve(m, tight());
  for (std::size_t i = 0; i < p.scores.size(); ++i)
    EXPECT_NEAR(p.scores[i], j.scores[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreement,
                         ::testing::Values(3u, 5u, 8u, 13u, 21u));

}  // namespace
}  // namespace srsr::rank
