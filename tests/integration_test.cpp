// End-to-end integration tests: miniature versions of the paper's
// experiments, asserting the qualitative results the evaluation section
// reports. These are the "does the whole pipeline reproduce the paper's
// shape" checks; the bench harness runs the full-size versions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/closed_forms.hpp"
#include "core/srsr.hpp"
#include "graph/builder.hpp"
#include "graph/webgen.hpp"
#include "metrics/ranking.hpp"
#include "rank/pagerank.hpp"
#include "spam/attacks.hpp"
#include "util/rng.hpp"

namespace srsr {
namespace {

using core::SourceMap;
using core::SpamResilientSourceRank;
using graph::WebCorpus;

core::SrsrConfig srsr_config() {
  core::SrsrConfig cfg;
  cfg.convergence.tolerance = 1e-10;
  cfg.convergence.max_iterations = 2000;
  return cfg;
}

rank::SolverConfig pr_config() {
  rank::SolverConfig cfg;
  cfg.convergence.tolerance = 1e-10;
  cfg.convergence.max_iterations = 2000;
  return cfg;
}

WebCorpus corpus_fixture() {
  graph::WebGenConfig cfg;
  cfg.num_sources = 500;
  cfg.num_spam_sources = 25;
  cfg.seed = 777;
  return graph::generate_web_corpus(cfg);
}

// --- Fig. 6 shape: intra-source manipulation moves PageRank far more
// than Spam-Resilient SourceRank.
TEST(Integration, IntraSourceFarmPageRankJumpsSrsrBarely) {
  const WebCorpus corpus = corpus_fixture();
  const SourceMap map = SourceMap::from_corpus(corpus);
  const SpamResilientSourceRank srsr_clean(corpus.pages, map, srsr_config());
  const auto clean_sr = srsr_clean.rank_baseline();
  const auto clean_pr = rank::pagerank(corpus.pages, pr_config());

  // Pick a target in the bottom half, unthrottled, per the protocol.
  Pcg32 rng(1);
  const auto targets = spam::select_attack_targets(
      corpus, clean_sr.scores, std::vector<f64>(map.num_sources(), 0.0), 1,
      rng);
  const NodeId target_source = targets[0];
  const NodeId target_page = spam::random_page_of(corpus, target_source, rng);

  // Case D: 1000 colluding pages inside the target's own source.
  const WebCorpus attacked =
      spam::add_intra_source_farm(corpus, target_page, 1000);
  const SourceMap map2(attacked.page_source);
  const auto pr_after = rank::pagerank(attacked.pages, pr_config());
  const SpamResilientSourceRank srsr_attacked(attacked.pages, map2,
                                              srsr_config());
  const auto sr_after = srsr_attacked.rank_baseline();

  // The robust Sec. 4.1 claim: SRSR's gain is a BOUNDED one-time
  // self-tuning (<= (1-alpha*kappa)/(1-alpha) = 6.67x at kappa=0),
  // while PageRank's gain grows without bound in tau.
  const f64 pr_amp = pr_after.scores[target_page] / clean_pr.scores[target_page];
  const f64 sr_amp =
      sr_after.scores[target_source] / clean_sr.scores[target_source];
  EXPECT_LE(sr_amp, analysis::self_tuning_gain(0.85, 0.0) + 0.2);
  EXPECT_GT(pr_amp, 3.0 * sr_amp);
  // And the paper's percentile framing still separates them.
  const f64 pr_jump = metrics::percentile_of(pr_after.scores, target_page) -
                      metrics::percentile_of(clean_pr.scores, target_page);
  EXPECT_GT(pr_jump, 20.0);
}

// --- Fig. 7 shape: inter-source manipulation.
TEST(Integration, CrossSourceFarmPageRankJumpsSrsrLess) {
  const WebCorpus corpus = corpus_fixture();
  const SourceMap map = SourceMap::from_corpus(corpus);
  const SpamResilientSourceRank srsr_clean(corpus.pages, map, srsr_config());
  const auto clean_sr = srsr_clean.rank_baseline();
  const auto clean_pr = rank::pagerank(corpus.pages, pr_config());

  Pcg32 rng(2);
  const auto picks = spam::select_attack_targets(
      corpus, clean_sr.scores, std::vector<f64>(map.num_sources(), 0.0), 2,
      rng);
  const NodeId target_source = picks[0];
  const NodeId colluding_source = picks[1];
  const NodeId target_page = spam::random_page_of(corpus, target_source, rng);

  const WebCorpus attacked = spam::add_cross_source_farm(
      corpus, target_page, colluding_source, 1000);
  const SourceMap map2(attacked.page_source);
  const auto pr_after = rank::pagerank(attacked.pages, pr_config());
  const SpamResilientSourceRank srsr_attacked(attacked.pages, map2,
                                              srsr_config());
  const auto sr_after = srsr_attacked.rank_baseline();

  // Inter-source: the colluder can at most hand over its own (bounded)
  // score; PageRank again grows linearly in the number of farm pages.
  const f64 pr_amp =
      pr_after.scores[target_page] / clean_pr.scores[target_page];
  const f64 sr_amp =
      sr_after.scores[target_source] / clean_sr.scores[target_source];
  EXPECT_GT(pr_amp, 3.0 * sr_amp);
  EXPECT_LT(sr_amp, 15.0);
  const f64 pr_jump = metrics::percentile_of(pr_after.scores, target_page) -
                      metrics::percentile_of(clean_pr.scores, target_page);
  EXPECT_GT(pr_jump, 20.0);
}

// --- Fig. 5 shape: spam-proximity throttling pushes spam sources down
// the ranking relative to the unthrottled baseline.
TEST(Integration, ThrottlingPushesSpamTowardBottomBuckets) {
  const WebCorpus corpus = corpus_fixture();
  const SourceMap map = SourceMap::from_corpus(corpus);
  // The Sec. 6 experiments use the teleport-discard reading of kappa=1
  // (see the interpretation note in throttle.hpp): throttled sources
  // surrender their influence instead of self-absorbing it.
  core::SrsrConfig cfg = srsr_config();
  cfg.throttle_mode = core::ThrottleMode::kTeleportDiscard;
  const SpamResilientSourceRank model(corpus.pages, map, cfg);

  const auto spam_sources = corpus.spam_sources();
  // Seed: <10% of the true spam set, mirroring Sec. 6.2.
  Pcg32 rng(3);
  const auto seed_idx = sample_without_replacement(
      rng, static_cast<u32>(spam_sources.size()), 2);
  std::vector<NodeId> seeds;
  for (const u32 i : seed_idx) seeds.push_back(spam_sources[i]);

  const auto baseline = model.rank_baseline();
  const auto throttled = model.rank_with_spam_seeds(
      seeds, /*top_k=*/2 * static_cast<u32>(spam_sources.size()));

  constexpr u32 kBuckets = 10;
  const auto base_buckets =
      metrics::equal_count_buckets(baseline.scores, kBuckets);
  const auto thr_buckets =
      metrics::equal_count_buckets(throttled.ranking.scores, kBuckets);
  const auto base_occ =
      metrics::bucket_occupancy(base_buckets, spam_sources, kBuckets);
  const auto thr_occ =
      metrics::bucket_occupancy(thr_buckets, spam_sources, kBuckets);

  // Mean bucket index of spam must move down (larger index = worse).
  auto mean_bucket = [&](const std::vector<u64>& occ) {
    f64 weighted = 0.0, total = 0.0;
    for (u32 b = 0; b < kBuckets; ++b) {
      weighted += static_cast<f64>(occ[b]) * b;
      total += static_cast<f64>(occ[b]);
    }
    return weighted / total;
  };
  EXPECT_GT(mean_bucket(thr_occ), mean_bucket(base_occ) + 0.5);
}

// --- Sec. 4.2 empirics: the collusion closed form matches the solver.
TEST(Integration, CollusionClosedFormMatchesSolver) {
  // Build the Sec. 4.2 idealized system directly as a source matrix:
  // target 0 (self-weight 1), x colluders with self kappa and 1-kappa
  // to the target, plus isolated reference sources.
  const f64 alpha = 0.85;
  const f64 kappa = 0.6;
  const u32 x = 5;
  const u32 n = 20;  // 1 target + 5 colluders + 14 isolated
  std::vector<std::vector<std::pair<NodeId, f64>>> rows(n);
  rows[0] = {{0, 1.0}};
  for (u32 c = 1; c <= x; ++c) rows[c] = {{c, kappa}, {0, 1.0 - kappa}};
  for (u32 r = x + 1; r < n; ++r) rows[r] = {{r, 1.0}};
  const auto m = rank::StochasticMatrix::from_rows(n, rows);
  rank::SolverConfig sc;
  sc.alpha = alpha;
  sc.convergence.tolerance = 1e-13;
  sc.convergence.max_iterations = 5000;
  const auto res = rank::jacobi_solve(m, sc);

  // Closed form (unnormalized linear solution) predicts the ratio of
  // the target to an isolated reference source.
  const f64 sigma_target =
      analysis::target_score_with_colluders(alpha, n, x, kappa);
  const f64 sigma_ref = analysis::single_source_score(alpha, n, 1.0);
  EXPECT_NEAR(res.scores[0] / res.scores[n - 1], sigma_target / sigma_ref,
              1e-8);
}

// --- Fig. 2 empirics: self-tuning gain matches the solver.
TEST(Integration, SelfTuningGainMatchesSolver) {
  const f64 alpha = 0.85;
  const u32 n = 10;
  for (const f64 kappa : {0.0, 0.4, 0.8}) {
    auto solve_with_self_weight = [&](f64 w) {
      std::vector<std::vector<std::pair<NodeId, f64>>> rows(n);
      rows[0] = w < 1.0
                    ? std::vector<std::pair<NodeId, f64>>{{0, w}, {1, 1.0 - w}}
                    : std::vector<std::pair<NodeId, f64>>{{0, 1.0}};
      for (u32 r = 1; r < n; ++r) rows[r] = {{r, 1.0}};
      rank::SolverConfig sc;
      sc.alpha = alpha;
      sc.convergence.tolerance = 1e-13;
      sc.convergence.max_iterations = 5000;
      const auto res =
          rank::jacobi_solve(rank::StochasticMatrix::from_rows(n, rows), sc);
      return res.scores[0] / res.scores[n - 1];  // vs isolated reference
    };
    const f64 gain = solve_with_self_weight(1.0) / solve_with_self_weight(kappa);
    EXPECT_NEAR(gain, analysis::self_tuning_gain(alpha, kappa), 1e-8)
        << "kappa=" << kappa;
  }
}

// --- PageRank susceptibility: the empirical amplification tracks the
// tau*alpha closed form on a neutral background.
TEST(Integration, PageRankAmplificationTracksClosedForm) {
  // The Sec. 4.3 model needs the target's outside income z to be fixed
  // (no feedback): node 1 -> 0 is the only organic in-link, node 0
  // points away into the background, and the background never points
  // back at 0.
  const NodeId n = 1000;
  auto build_background = [&](graph::GraphBuilder& b) {
    for (NodeId u = 2; u + 1 < n; u += 2) {
      b.add_edge(u, u + 1);
      b.add_edge(u + 1, u);
    }
    b.add_edge(1, 0);  // the target's single organic in-link
    b.add_edge(0, 2);  // target is not dangling
  };
  graph::GraphBuilder b(n);
  build_background(b);
  const auto clean = rank::pagerank(b.build(), pr_config());

  const u64 tau = 50;
  graph::GraphBuilder b2(n);
  build_background(b2);
  b2.grow(n + static_cast<NodeId>(tau));
  for (u64 i = 0; i < tau; ++i)
    b2.add_edge(n + static_cast<NodeId>(i), 0);
  const auto spammed = rank::pagerank(b2.build(), pr_config());

  const f64 empirical = spammed.scores[0] / clean.scores[0];
  // The farm enlarges |P| from 1000 to 1050, shrinking the per-node
  // teleport share by ~5%; allow 10% slack around the closed form.
  const f64 predicted = analysis::pagerank_amplification(
      0.85, n, tau, clean.scores[0] - 0.15 / n);
  EXPECT_NEAR(empirical, predicted, 0.10 * predicted);
  EXPECT_GT(empirical, 10.0);
}

}  // namespace
}  // namespace srsr
