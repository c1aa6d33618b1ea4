// Tests for the TrustRank baseline.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "rank/trustrank.hpp"
#include "util/rng.hpp"

namespace srsr::rank {
namespace {

TEST(TrustRank, SeedsGetHighTrust) {
  // Chain 0 -> 1 -> 2 -> 3; trust seeded at 0 decays along the chain.
  const auto g = graph::path(4);
  const auto r = trustrank(g, {0});
  EXPECT_GT(r.scores[0], r.scores[2]);
  EXPECT_GT(r.scores[1], r.scores[2]);
}

TEST(TrustRank, TrustPropagatesForward) {
  // Node unreachable from the seed gets only dangling-redistribution
  // crumbs, far below the seed's own score.
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);  // 2 is isolated
  const auto r = trustrank(b.build(), {0});
  EXPECT_GT(r.scores[0], r.scores[2]);
  EXPECT_GT(r.scores[1], r.scores[2]);
}

TEST(TrustRank, MultipleSeedsShareTeleport) {
  const auto g = graph::cycle(6);
  const auto r = trustrank(g, {0, 3});
  EXPECT_NEAR(r.scores[0], r.scores[3], 1e-9);
  EXPECT_NEAR(r.scores[1], r.scores[4], 1e-9);
}

TEST(TrustRank, RejectsEmptyOrBadSeeds) {
  const auto g = graph::cycle(3);
  EXPECT_THROW(trustrank(g, {}), Error);
  EXPECT_THROW(trustrank(g, {7}), Error);
}

TEST(TrustRank, ScoresFormDistribution) {
  Pcg32 rng(63);
  const auto g = graph::erdos_renyi(80, 0.06, rng);
  const auto r = trustrank(g, {0, 1, 2});
  f64 sum = 0.0;
  for (const f64 v : r.scores) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

}  // namespace
}  // namespace srsr::rank
