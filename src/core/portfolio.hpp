// Spammer behavior model and portfolio-value metrics.
//
// The paper's stated ongoing work (Sec. 8): "developing a model of
// spammer behavior, including new metrics for the effectiveness of
// link-based manipulation... evaluate the relative impact on the
// *value* of a spammer's portfolio of sources due to link-based
// manipulation."
//
// This module implements that program:
//   - AttackCostModel prices the spammer's spend: pages and hosts the
//     spammer provisions are cheap; links injected into pages the
//     spammer does NOT own (hijacks, honeypot lures) are expensive.
//   - The value of a portfolio of sources under a ranking is the sum of
//     their ranking percentiles (0-100 each) — the currency a spammer
//     actually sells (visibility).
//   - SpammerModel::evaluate runs a composite campaign (spam/campaign)
//     against a chosen ranking system, re-ranks, and reports
//     gain-per-cost (ROI). For the throttled system the defender
//     re-detects on the attacked graph — i.e. the spammer must beat a
//     reactive defense, not a frozen one.
#pragma once

#include <span>
#include <vector>

#include "core/srsr.hpp"
#include "rank/pagerank.hpp"
#include "spam/campaign.hpp"
#include "util/common.hpp"

namespace srsr::core {

struct AttackCostModel {
  /// Creating/hosting a page the spammer owns.
  f64 per_page = 1.0;
  /// Registering and operating a fresh source (host).
  f64 per_source = 25.0;
  /// Injecting one link into a page the spammer does not own
  /// (hijacking a wiki, luring a honeypot citation).
  f64 per_injected_link = 10.0;
};

/// Total spend of a campaign under the cost model.
f64 campaign_cost(const spam::CampaignReceipt& receipt,
                  const AttackCostModel& costs);

/// Portfolio value: sum of ranking percentiles of `members` under
/// `scores` (each in [0, 100]).
f64 portfolio_value(std::span<const f64> scores,
                    const std::vector<NodeId>& members);

enum class RankingSystem {
  kPageRank,            // page-level PageRank; value measured on pages
  kSourceRankBaseline,  // SRSR with no throttling information
  kThrottledSrsr,       // SRSR + spam-proximity top-k throttling
};

struct SpammerModelConfig {
  AttackCostModel costs;
  SrsrConfig srsr;  // alpha/solver/throttle-mode for the source systems
  rank::SolverConfig pagerank;
  /// Defender inputs for kThrottledSrsr: labeled seeds and the top-k
  /// throttle budget. The defender recomputes proximity on whatever
  /// graph the spammer produces.
  std::vector<NodeId> defender_seeds;
  u32 defender_top_k = 0;
};

struct CampaignEvaluation {
  f64 cost = 0.0;
  f64 value_before = 0.0;  // target's percentile pre-attack
  f64 value_after = 0.0;   // and post-attack (post-defense for throttled)
  f64 gain = 0.0;          // value_after - value_before
  f64 roi = 0.0;           // gain / cost (0 when the campaign is free)
  spam::CampaignReceipt receipt;
};

/// Binds a corpus and evaluates campaigns against it. Clean rankings
/// are computed once at construction and reused across evaluations.
class SpammerModel {
 public:
  SpammerModel(const graph::WebCorpus& corpus, SpammerModelConfig config);

  /// Evaluates `spec` against `system`, targeting `target_page` (the
  /// value is measured on the page for kPageRank and on the page's
  /// source for the source-level systems). Deterministic in rng_seed.
  CampaignEvaluation evaluate(RankingSystem system, NodeId target_page,
                              const spam::CampaignSpec& spec,
                              u64 rng_seed) const;

  /// Value of an existing portfolio of sources under a source-level
  /// system, no attack — the baseline worth the spammer defends.
  f64 source_portfolio_value(RankingSystem system,
                             const std::vector<NodeId>& sources) const;

  const graph::WebCorpus& corpus() const { return *corpus_; }

 private:
  std::vector<f64> rank_sources(const graph::WebCorpus& corpus,
                                bool throttled) const;

  const graph::WebCorpus* corpus_;  // non-owning
  SpammerModelConfig config_;
  std::vector<f64> clean_pagerank_;
  std::vector<f64> clean_baseline_;
  std::vector<f64> clean_throttled_;
};

}  // namespace srsr::core
