#include "core/portfolio.hpp"

#include "metrics/ranking.hpp"
#include "util/check.hpp"

namespace srsr::core {

f64 campaign_cost(const spam::CampaignReceipt& receipt,
                  const AttackCostModel& costs) {
  return costs.per_page * static_cast<f64>(receipt.pages_added) +
         costs.per_source * static_cast<f64>(receipt.sources_added) +
         costs.per_injected_link * static_cast<f64>(receipt.links_injected);
}

f64 portfolio_value(std::span<const f64> scores,
                    const std::vector<NodeId>& members) {
  f64 total = 0.0;
  for (const NodeId m : members)
    total += metrics::percentile_of(scores, m);
  return total;
}

SpammerModel::SpammerModel(const graph::WebCorpus& corpus,
                           SpammerModelConfig config)
    : corpus_(&corpus), config_(std::move(config)) {
  clean_pagerank_ =
      rank::pagerank(corpus.pages, config_.pagerank).scores;
  clean_baseline_ = rank_sources(corpus, /*throttled=*/false);
  if (!config_.defender_seeds.empty() && config_.defender_top_k > 0)
    clean_throttled_ = rank_sources(corpus, /*throttled=*/true);
}

std::vector<f64> SpammerModel::rank_sources(const graph::WebCorpus& corpus,
                                            bool throttled) const {
  const SourceMap map(corpus.page_source);
  const SpamResilientSourceRank model(corpus.pages, map, config_.srsr);
  if (!throttled) return model.rank_baseline().scores;
  SRSR_CHECK(!config_.defender_seeds.empty() && config_.defender_top_k > 0,
             "SpammerModel: kThrottledSrsr needs defender seeds and top_k");
  return model
      .rank_with_spam_seeds(config_.defender_seeds, config_.defender_top_k)
      .ranking.scores;
}

CampaignEvaluation SpammerModel::evaluate(RankingSystem system,
                                          NodeId target_page,
                                          const spam::CampaignSpec& spec,
                                          u64 rng_seed) const {
  SRSR_CHECK(target_page < corpus_->num_pages(),
             "SpammerModel::evaluate: target page out of range");
  Pcg32 rng(rng_seed);
  auto attacked = spam::apply_campaign(*corpus_, target_page, spec, rng);

  CampaignEvaluation eval;
  eval.receipt = attacked.receipt;
  eval.cost = campaign_cost(attacked.receipt, config_.costs);

  const NodeId target_source = corpus_->page_source[target_page];
  switch (system) {
    case RankingSystem::kPageRank: {
      const auto after =
          rank::pagerank(attacked.corpus.pages, config_.pagerank);
      eval.value_before =
          metrics::percentile_of(clean_pagerank_, target_page);
      eval.value_after = metrics::percentile_of(after.scores, target_page);
      break;
    }
    case RankingSystem::kSourceRankBaseline: {
      const auto after = rank_sources(attacked.corpus, /*throttled=*/false);
      eval.value_before =
          metrics::percentile_of(clean_baseline_, target_source);
      eval.value_after = metrics::percentile_of(after, target_source);
      break;
    }
    case RankingSystem::kThrottledSrsr: {
      // Reactive defense: proximity + top-k recomputed on the attacked
      // graph (the seeds are label knowledge, which does not change).
      const auto after = rank_sources(attacked.corpus, /*throttled=*/true);
      eval.value_before =
          metrics::percentile_of(clean_throttled_, target_source);
      eval.value_after = metrics::percentile_of(after, target_source);
      break;
    }
  }
  eval.gain = eval.value_after - eval.value_before;
  eval.roi = eval.cost > 0.0 ? eval.gain / eval.cost : 0.0;
  return eval;
}

f64 SpammerModel::source_portfolio_value(
    RankingSystem system, const std::vector<NodeId>& sources) const {
  SRSR_CHECK(system != RankingSystem::kPageRank,
             "source_portfolio_value: source-level systems only");
  const auto& scores = system == RankingSystem::kSourceRankBaseline
                           ? clean_baseline_
                           : clean_throttled_;
  SRSR_CHECK(!scores.empty(),
             "source_portfolio_value: throttled ranking unavailable (no "
             "defender seeds configured)");
  return portfolio_value(scores, sources);
}

}  // namespace srsr::core
