#include "metrics/detection.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace srsr::metrics {

namespace {

void finalize(PrecisionRecall& pr) {
  const u64 flagged = pr.true_positives + pr.false_positives;
  const u64 positives = pr.true_positives + pr.false_negatives;
  pr.precision = flagged == 0 ? 0.0
                              : static_cast<f64>(pr.true_positives) /
                                    static_cast<f64>(flagged);
  pr.recall = positives == 0 ? 0.0
                             : static_cast<f64>(pr.true_positives) /
                                   static_cast<f64>(positives);
  pr.f1 = (pr.precision + pr.recall) == 0.0
              ? 0.0
              : 2.0 * pr.precision * pr.recall / (pr.precision + pr.recall);
}

/// Indices by descending score, ties by ascending index.
std::vector<u32> order_desc(std::span<const f64> scores) {
  std::vector<u32> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  return order;
}

}  // namespace

PrecisionRecall precision_recall(std::span<const u8> flagged,
                                 std::span<const u8> labels) {
  SRSR_CHECK(flagged.size() == labels.size(),
             "precision_recall: size mismatch");
  PrecisionRecall pr;
  for (std::size_t i = 0; i < flagged.size(); ++i) {
    if (flagged[i] && labels[i]) ++pr.true_positives;
    else if (flagged[i] && !labels[i]) ++pr.false_positives;
    else if (!flagged[i] && labels[i]) ++pr.false_negatives;
  }
  finalize(pr);
  return pr;
}

PrecisionRecall precision_recall_at_k(std::span<const f64> scores,
                                      std::span<const u8> labels, u32 k) {
  SRSR_CHECK(scores.size() == labels.size(),
             "precision_recall_at_k: size mismatch");
  SRSR_CHECK(k <= scores.size(), "precision_recall_at_k: k exceeds item count");
  const auto order = order_desc(scores);
  std::vector<u8> flagged(scores.size(), 0);
  for (u32 i = 0; i < k; ++i) flagged[order[i]] = 1;
  return precision_recall(flagged, labels);
}

f64 average_precision(std::span<const f64> scores,
                      std::span<const u8> labels) {
  SRSR_CHECK(scores.size() == labels.size(),
             "average_precision: size mismatch");
  const auto order = order_desc(scores);
  u64 positives_seen = 0;
  f64 total = 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (!labels[order[i]]) continue;
    ++positives_seen;
    total += static_cast<f64>(positives_seen) / static_cast<f64>(i + 1);
  }
  SRSR_CHECK(positives_seen > 0, "average_precision: no positive labels");
  return total / static_cast<f64>(positives_seen);
}

f64 roc_auc(std::span<const f64> scores, std::span<const u8> labels) {
  SRSR_CHECK(scores.size() == labels.size(), "roc_auc: size mismatch");
  // Rank-sum with midranks for ties.
  std::vector<u32> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](u32 a, u32 b) { return scores[a] < scores[b]; });
  std::vector<f64> rank(scores.size());
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j < order.size() && scores[order[j]] == scores[order[i]]) ++j;
    const f64 midrank = (static_cast<f64>(i + 1) + static_cast<f64>(j)) / 2.0;
    for (std::size_t k = i; k < j; ++k) rank[order[k]] = midrank;
    i = j;
  }
  u64 positives = 0;
  f64 positive_rank_sum = 0.0;
  for (std::size_t idx = 0; idx < labels.size(); ++idx) {
    if (labels[idx]) {
      ++positives;
      positive_rank_sum += rank[idx];
    }
  }
  const u64 negatives = labels.size() - positives;
  SRSR_CHECK(positives > 0 && negatives > 0,
             "roc_auc: need both positive and negative labels");
  const f64 u_stat = positive_rank_sum -
                     static_cast<f64>(positives) *
                         (static_cast<f64>(positives) + 1.0) / 2.0;
  return u_stat /
         (static_cast<f64>(positives) * static_cast<f64>(negatives));
}

}  // namespace srsr::metrics
