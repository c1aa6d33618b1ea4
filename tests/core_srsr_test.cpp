// Tests for the SpamResilientSourceRank facade (core/srsr.hpp) — the
// paper's full ranking model.
#include "core/srsr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/webgen.hpp"
#include "rank/pagerank.hpp"
#include "util/rng.hpp"

namespace srsr::core {
namespace {

SrsrConfig tight_config() {
  SrsrConfig cfg;
  cfg.convergence.tolerance = 1e-12;
  cfg.convergence.max_iterations = 5000;
  return cfg;
}

graph::WebCorpus small_corpus(u64 seed = 2024, u32 sources = 200,
                              u32 spam = 10) {
  graph::WebGenConfig cfg;
  cfg.num_sources = sources;
  cfg.num_spam_sources = spam;
  cfg.seed = seed;
  return graph::generate_web_corpus(cfg);
}

void expect_distribution(const std::vector<f64>& scores) {
  f64 sum = 0.0;
  for (const f64 v : scores) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Srsr, BaselineRankIsDistribution) {
  const auto corpus = small_corpus();
  const SourceMap map = SourceMap::from_corpus(corpus);
  const SpamResilientSourceRank srsr(corpus.pages, map, tight_config());
  const auto r = srsr.rank_baseline();
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.scores.size(), srsr.num_sources());
  expect_distribution(r.scores);
}

TEST(Srsr, KappaZeroEqualsBaseline) {
  const auto corpus = small_corpus();
  const SourceMap map = SourceMap::from_corpus(corpus);
  const SpamResilientSourceRank srsr(corpus.pages, map, tight_config());
  const auto base = srsr.rank_baseline();
  const auto zero = srsr.rank(std::vector<f64>(srsr.num_sources(), 0.0));
  for (std::size_t i = 0; i < base.scores.size(); ++i)
    EXPECT_NEAR(base.scores[i], zero.scores[i], 1e-12);
}

TEST(Srsr, IdentityMapUniformWeightsEqualsPageRank) {
  // With every page its own source, uniform weighting, and no self-edge
  // augmentation, SourceRank degenerates to plain PageRank.
  Pcg32 rng(71);
  const auto g = graph::erdos_renyi(80, 0.06, rng);
  SrsrConfig cfg = tight_config();
  cfg.weighting = EdgeWeighting::kUniform;
  cfg.self_edges = false;
  const SourceMap map = SourceMap::identity(g.num_nodes());
  const SpamResilientSourceRank srsr(g, map, cfg);
  const auto source_rank = srsr.rank_baseline();
  rank::SolverConfig pr;
  pr.convergence.tolerance = 1e-12;
  pr.convergence.max_iterations = 5000;
  const auto page_rank = rank::pagerank(g, pr);
  for (std::size_t i = 0; i < source_rank.scores.size(); ++i)
    EXPECT_NEAR(source_rank.scores[i], page_rank.scores[i], 1e-10);
}

TEST(Srsr, PowerAndJacobiAgreeOnAugmentedModel) {
  const auto corpus = small_corpus();
  const SourceMap map = SourceMap::from_corpus(corpus);
  SrsrConfig pw = tight_config();
  SrsrConfig jc = tight_config();
  jc.solver = SolverKind::kJacobi;
  const SpamResilientSourceRank a(corpus.pages, map, pw);
  const SpamResilientSourceRank b(corpus.pages, map, jc);
  const auto ra = a.rank_baseline();
  const auto rb = b.rank_baseline();
  for (std::size_t i = 0; i < ra.scores.size(); ++i)
    EXPECT_NEAR(ra.scores[i], rb.scores[i], 1e-9);
}

TEST(Srsr, FullThrottleDropsSourceScoreInfluence) {
  // Fully throttling a source cannot *raise* anyone else's score via
  // that source; its own score typically rises (self-absorption) while
  // its outflow dies. We verify the outflow death: a source whose only
  // in-links come from a throttled source loses score.
  graph::GraphBuilder b(6);
  // Source structure (identity-ish): 3 sources of 2 pages each.
  // Source 0 (pages 0,1) -> Source 1 (pages 2,3) heavily.
  b.add_edge(0, 2);
  b.add_edge(1, 2);
  b.add_edge(0, 1);  // intra
  b.add_edge(4, 5);  // source 2 intra only
  const SourceMap map({0, 0, 1, 1, 2, 2});
  const SpamResilientSourceRank srsr(b.build(), map, tight_config());
  std::vector<f64> kappa(3, 0.0);
  const auto before = srsr.rank(kappa);
  kappa[0] = 1.0;  // throttle the endorser
  const auto after = srsr.rank(kappa);
  EXPECT_LT(after.scores[1], before.scores[1]);
}

TEST(Srsr, ThrottledMatrixMatchesApplyThrottle) {
  const auto corpus = small_corpus(5, 80, 4);
  const SourceMap map = SourceMap::from_corpus(corpus);
  const SpamResilientSourceRank srsr(corpus.pages, map, tight_config());
  std::vector<f64> kappa(srsr.num_sources(), 0.0);
  kappa[3] = 0.8;
  const auto direct = apply_throttle(srsr.base_matrix(), kappa);
  const auto via = srsr.throttled_matrix(kappa);
  EXPECT_EQ(direct.num_entries(), via.num_entries());
  for (NodeId r = 0; r < direct.num_rows(); ++r)
    EXPECT_NEAR(direct.row_sum(r), via.row_sum(r), 1e-12);
}

TEST(Srsr, RankWithSpamSeedsThrottlesSpam) {
  const auto corpus = small_corpus(31, 300, 20);
  const SourceMap map = SourceMap::from_corpus(corpus);
  const SpamResilientSourceRank srsr(corpus.pages, map, tight_config());
  const auto spam = corpus.spam_sources();
  const std::vector<NodeId> seeds(spam.begin(), spam.begin() + 2);
  const auto result = srsr.rank_with_spam_seeds(seeds, 40);
  EXPECT_EQ(result.kappa.size(), srsr.num_sources());
  u32 throttled = 0, throttled_spam = 0;
  for (u32 s = 0; s < srsr.num_sources(); ++s) {
    if (result.kappa[s] == 1.0) {
      ++throttled;
      throttled_spam += corpus.source_is_spam[s];
    }
  }
  EXPECT_EQ(throttled, 40u);
  // The proximity walk should concentrate the throttle on actual spam:
  // at least half of the 20 spam sources are inside the top-40.
  EXPECT_GE(throttled_spam, 10u);
  expect_distribution(result.ranking.scores);
}

TEST(Srsr, UniformVsConsensusWeightingDiffer) {
  const auto corpus = small_corpus();
  const SourceMap map = SourceMap::from_corpus(corpus);
  SrsrConfig uni = tight_config();
  uni.weighting = EdgeWeighting::kUniform;
  const SpamResilientSourceRank a(corpus.pages, map, tight_config());
  const SpamResilientSourceRank b(corpus.pages, map, uni);
  const auto ra = a.rank_baseline();
  const auto rb = b.rank_baseline();
  f64 max_diff = 0.0;
  for (std::size_t i = 0; i < ra.scores.size(); ++i)
    max_diff = std::max(max_diff, std::abs(ra.scores[i] - rb.scores[i]));
  EXPECT_GT(max_diff, 1e-6);
}

TEST(Srsr, DeterministicAcrossRuns) {
  const auto corpus = small_corpus();
  const SourceMap map = SourceMap::from_corpus(corpus);
  const SpamResilientSourceRank srsr(corpus.pages, map, tight_config());
  const auto r1 = srsr.rank_baseline();
  const auto r2 = srsr.rank_baseline();
  EXPECT_EQ(r1.scores, r2.scores);
}

}  // namespace
}  // namespace srsr::core
