#include "search/engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "util/check.hpp"

namespace srsr::search {

SearchEngine::SearchEngine(const InvertedIndex& index,
                           std::vector<f64> global_scores,
                           EngineConfig config)
    : index_(&index), global_scores_(std::move(global_scores)),
      config_(config) {
  SRSR_CHECK(config_.authority_weight >= 0.0 && config_.authority_weight <= 1.0,
             "SearchEngine: authority_weight must be in [0,1]");
  if (!global_scores_.empty()) {
    SRSR_CHECK(global_scores_.size() == index.num_documents(),
               "SearchEngine: global score vector size mismatch");
    for (const f64 v : global_scores_)
      SRSR_CHECK(v >= 0.0, "SearchEngine: global scores must be non-negative");

    // Corpus-wide authority percentiles; tied scores share the average
    // position so the blend never invents an order among equals.
    const std::size_t n = global_scores_.size();
    std::vector<u32> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
      return global_scores_[a] < global_scores_[b];
    });
    authority_percentile_.assign(n, 0.0);
    const f64 denom = n > 1 ? static_cast<f64>(n - 1) : 1.0;
    std::size_t i = 0;
    while (i < n) {
      std::size_t j = i;
      while (j < n &&
             global_scores_[order[j]] == global_scores_[order[i]])
        ++j;
      const f64 mid = (static_cast<f64>(i) + static_cast<f64>(j - 1)) / 2.0;
      for (std::size_t k = i; k < j; ++k)
        authority_percentile_[order[k]] = mid / denom;
      i = j;
    }
  }
}

std::vector<std::pair<NodeId, f64>> SearchEngine::relevance_scores(
    const std::vector<u32>& terms) const {
  const f64 n = static_cast<f64>(index_->num_documents());
  const f64 avgdl = std::max(index_->average_document_length(), 1e-9);
  const auto& p = config_.bm25;

  std::unordered_map<NodeId, f64> acc;
  for (const u32 term : terms) {
    const auto posts = index_->postings(term);
    if (posts.empty()) continue;
    const f64 df = static_cast<f64>(posts.size());
    // BM25+-style floor keeps idf positive for very common terms.
    const f64 idf = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
    for (const Posting& post : posts) {
      const f64 tf = static_cast<f64>(post.tf);
      const f64 dl = static_cast<f64>(index_->document_length(post.page));
      const f64 denom = tf + p.k1 * (1.0 - p.b + p.b * dl / avgdl);
      acc[post.page] += idf * tf * (p.k1 + 1.0) / denom;
    }
  }
  std::vector<std::pair<NodeId, f64>> out(acc.begin(), acc.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SearchHit> SearchEngine::query(const std::vector<u32>& terms,
                                           u32 k) const {
  std::vector<SearchHit> hits;
  const auto relevance = relevance_scores(terms);
  if (relevance.empty() || k == 0) return hits;

  f64 max_rel = 0.0;
  for (const auto& [page, rel] : relevance) max_rel = std::max(max_rel, rel);

  hits.reserve(relevance.size());
  const f64 w = global_scores_.empty() ? 0.0 : config_.authority_weight;
  for (const auto& [page, rel] : relevance) {
    SearchHit hit;
    hit.page = page;
    hit.relevance = rel;
    hit.authority = global_scores_.empty() ? 0.0 : global_scores_[page];
    const f64 rel_norm = max_rel > 0.0 ? rel / max_rel : 0.0;
    const f64 auth_pct =
        authority_percentile_.empty() ? 0.0 : authority_percentile_[page];
    hit.score = (1.0 - w) * rel_norm + w * auth_pct;
    hits.push_back(hit);
  }
  std::sort(hits.begin(), hits.end(), [](const SearchHit& a, const SearchHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.page < b.page;
  });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

std::vector<f64> project_source_scores_to_pages(
    std::span<const f64> source_scores, std::span<const NodeId> page_source,
    std::span<const u32> source_page_count) {
  SRSR_CHECK(source_scores.size() == source_page_count.size(),
             "project_source_scores_to_pages: source vector size mismatch");
  std::vector<f64> out(page_source.size());
  for (std::size_t p = 0; p < page_source.size(); ++p) {
    const NodeId s = page_source[p];
    SRSR_CHECK(s < source_scores.size(),
               "project_source_scores_to_pages: source id out of range");
    SRSR_CHECK(source_page_count[s] > 0,
               "project_source_scores_to_pages: empty source");
    out[p] = source_scores[s] / static_cast<f64>(source_page_count[s]);
  }
  return out;
}

}  // namespace srsr::search
