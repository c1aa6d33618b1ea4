// Property test for the lazy throttle operator: for random matrices
// and random kappa vectors — including the corner cases kappa ∈ {0,1},
// dangling rows, and pure self-loops — ranking through a
// rank::ThrottledView must match ranking through the materialized
// apply_throttle path to 1e-12, for both throttle modes and every
// solver route. The solvers run well below the comparison tolerance so
// iteration-count differences cannot mask a mismatch.
#include "core/throttle.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "rank/operator.hpp"
#include "rank/push.hpp"
#include "rank/solvers.hpp"
#include "util/rng.hpp"

namespace srsr::core {
namespace {

// Random square matrix exercising every row shape the transform
// branches on: stochastic rows with/without self entries,
// substochastic rows, pure self-loops, and dangling rows.
rank::StochasticMatrix random_matrix(Pcg32& rng, NodeId n) {
  std::vector<u64> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeId> cols;
  std::vector<f64> weights;
  for (NodeId r = 0; r < n; ++r) {
    const f64 shape = rng.next_real();
    if (shape < 0.15) {
      // dangling
    } else if (shape < 0.3) {
      cols.push_back(r);  // pure self-loop
      weights.push_back(1.0);
    } else {
      const u32 degree = 1 + rng.next_below(4);
      std::vector<u32> picked = sample_without_replacement(rng, n, degree);
      if (rng.next_bool(0.6)) {
        // Ensure a self entry exists (the consensus-matrix common case).
        bool has_self = false;
        for (const u32 c : picked) has_self |= (c == r);
        if (!has_self) picked[rng.next_below(degree)] = r;
        std::sort(picked.begin(), picked.end());
        picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
      }
      std::vector<f64> raw(picked.size());
      f64 total = 0.0;
      for (f64& w : raw) total += (w = rng.next_real(0.05, 1.0));
      // Most rows stochastic, some substochastic (pre-existing deficit).
      const f64 target = rng.next_bool(0.8) ? 1.0 : rng.next_real(0.3, 0.9);
      for (std::size_t i = 0; i < picked.size(); ++i) {
        cols.push_back(picked[i]);
        weights.push_back(raw[i] / total * target);
      }
    }
    offsets[r + 1] = cols.size();
  }
  return rank::StochasticMatrix(std::move(offsets), std::move(cols),
                                std::move(weights));
}

// Random kappa with the corner values well represented.
std::vector<f64> random_kappa(Pcg32& rng, NodeId n) {
  std::vector<f64> kappa(n);
  for (f64& k : kappa) {
    const f64 shape = rng.next_real();
    if (shape < 0.25)
      k = 0.0;
    else if (shape < 0.5)
      k = 1.0;
    else
      k = rng.next_real();
  }
  return kappa;
}

void expect_close(const std::vector<f64>& a, const std::vector<f64>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

class ThrottleViewProperty : public ::testing::TestWithParam<u64> {};

TEST_P(ThrottleViewProperty, ViewMatchesMaterializedAcrossModesAndSolvers) {
  Pcg32 rng(GetParam());
  const NodeId n = 20 + rng.next_below(20);
  const auto base = random_matrix(rng, n);
  const auto base_t = base.transpose();
  const ThrottleRowStats stats = ThrottleRowStats::of(base);

  rank::SolverConfig sc;
  sc.convergence.tolerance = 1e-14;
  sc.convergence.max_iterations = 5000;
  rank::PushConfig pc;
  pc.epsilon = 1e-15;
  pc.max_pushes = 2'000'000;

  for (const ThrottleMode mode :
       {ThrottleMode::kSelfAbsorb, ThrottleMode::kTeleportDiscard}) {
    for (int rep = 0; rep < 3; ++rep) {
      const std::vector<f64> kappa = random_kappa(rng, n);
      const rank::StochasticMatrix materialized =
          apply_throttle(base, kappa, mode);
      const rank::ThrottledView view(
          base, base_t, make_throttle_plan(stats, kappa, mode));

      expect_close(rank::power_solve(materialized, sc).scores,
                   rank::power_solve(view, sc).scores);
      expect_close(rank::jacobi_solve(materialized, sc).scores,
                   rank::jacobi_solve(view, sc).scores);
      expect_close(rank::gauss_seidel_solve(materialized, sc).scores,
                   rank::gauss_seidel_solve(view, sc).scores);
      expect_close(rank::push_solve(materialized, pc).scores,
                   rank::push_solve(view, pc).scores);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThrottleViewProperty,
                         ::testing::Values(3u, 11u, 23u, 42u, 77u));

TEST(ThrottleViewCorners, AllZeroAndAllOneKappa) {
  Pcg32 rng(5);
  const auto base = random_matrix(rng, 16);
  const auto base_t = base.transpose();
  const ThrottleRowStats stats = ThrottleRowStats::of(base);
  rank::SolverConfig sc;
  sc.convergence.tolerance = 1e-14;
  for (const ThrottleMode mode :
       {ThrottleMode::kSelfAbsorb, ThrottleMode::kTeleportDiscard}) {
    for (const f64 value : {0.0, 1.0}) {
      const std::vector<f64> kappa(16, value);
      const rank::ThrottledView view(
          base, base_t, make_throttle_plan(stats, kappa, mode));
      const auto materialized = apply_throttle(base, kappa, mode);
      for (std::size_t v = 0; v < 16; ++v)
        EXPECT_NEAR(rank::power_solve(view, sc).scores[v],
                    rank::power_solve(materialized, sc).scores[v], 1e-12);
    }
  }
}

TEST(ThrottleViewCorners, PlanDeficitMatchesMaterializedRowDeficit) {
  Pcg32 rng(9);
  const auto base = random_matrix(rng, 24);
  const ThrottleRowStats stats = ThrottleRowStats::of(base);
  for (const ThrottleMode mode :
       {ThrottleMode::kSelfAbsorb, ThrottleMode::kTeleportDiscard}) {
    const std::vector<f64> kappa = random_kappa(rng, 24);
    const auto plan = make_throttle_plan(stats, kappa, mode);
    const auto deficits = apply_throttle(base, kappa, mode).row_deficits();
    for (NodeId r = 0; r < 24; ++r)
      EXPECT_NEAR(plan.deficit[r], deficits[r], 1e-12);
  }
}

}  // namespace
}  // namespace srsr::core
