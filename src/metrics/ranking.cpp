#include "metrics/ranking.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>

#include "util/check.hpp"

namespace srsr::metrics {

namespace {

/// Indices sorted by descending score, ties by ascending id.
std::vector<u32> order_desc(std::span<const f64> scores) {
  std::vector<u32> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  return order;
}

/// Merge-sort inversion count of `v` (number of out-of-order pairs).
u64 count_inversions(std::vector<u32>& v, std::vector<u32>& scratch,
                     std::size_t lo, std::size_t hi) {
  if (hi - lo <= 1) return 0;
  const std::size_t mid = lo + (hi - lo) / 2;
  u64 inv = count_inversions(v, scratch, lo, mid) +
            count_inversions(v, scratch, mid, hi);
  std::size_t i = lo, j = mid, k = lo;
  while (i < mid && j < hi) {
    if (v[i] <= v[j]) {
      scratch[k++] = v[i++];
    } else {
      inv += mid - i;
      scratch[k++] = v[j++];
    }
  }
  while (i < mid) scratch[k++] = v[i++];
  while (j < hi) scratch[k++] = v[j++];
  std::copy(scratch.begin() + static_cast<std::ptrdiff_t>(lo),
            scratch.begin() + static_cast<std::ptrdiff_t>(hi),
            v.begin() + static_cast<std::ptrdiff_t>(lo));
  return inv;
}

}  // namespace

std::vector<u32> ranks_by_score(std::span<const f64> scores) {
  const auto order = order_desc(scores);
  std::vector<u32> ranks(scores.size(), 0);
  u32 current_rank = 1;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i > 0 && scores[order[i]] != scores[order[i - 1]])
      current_rank = static_cast<u32>(i) + 1;
    ranks[order[i]] = current_rank;
  }
  return ranks;
}

f64 percentile_of(std::span<const f64> scores, NodeId id) {
  SRSR_CHECK(id < scores.size(), "percentile_of: id out of range");
  if (scores.size() <= 1) return 100.0;
  u64 below = 0;
  for (std::size_t i = 0; i < scores.size(); ++i)
    if (scores[i] < scores[id]) ++below;
  return 100.0 * static_cast<f64>(below) /
         static_cast<f64>(scores.size() - 1);
}

std::vector<u32> equal_count_buckets(std::span<const f64> scores,
                                     u32 num_buckets) {
  SRSR_CHECK(num_buckets > 0, "equal_count_buckets: need at least one bucket");
  SRSR_CHECK(scores.size() >= num_buckets,
             "equal_count_buckets: fewer nodes than buckets");
  const auto order = order_desc(scores);
  const std::size_t n = scores.size();
  const std::size_t base = n / num_buckets;
  const std::size_t extra = n % num_buckets;
  std::vector<u32> bucket(n, 0);
  std::size_t pos = 0;
  for (u32 b = 0; b < num_buckets; ++b) {
    const std::size_t size = base + (b < extra ? 1 : 0);
    for (std::size_t i = 0; i < size; ++i) bucket[order[pos++]] = b;
  }
  return bucket;
}

std::vector<u64> bucket_occupancy(std::span<const u32> buckets,
                                  std::span<const NodeId> marked,
                                  u32 num_buckets) {
  std::vector<u64> occupancy(num_buckets, 0);
  for (const NodeId id : marked) {
    SRSR_CHECK(id < buckets.size(), "bucket_occupancy: marked id out of range");
    SRSR_CHECK(buckets[id] < num_buckets,
               "bucket_occupancy: bucket out of range");
    ++occupancy[buckets[id]];
  }
  return occupancy;
}

f64 kendall_tau(std::span<const f64> a, std::span<const f64> b) {
  SRSR_CHECK(a.size() == b.size(), "kendall_tau: size mismatch");
  const std::size_t n = a.size();
  if (n < 2) return 1.0;
  // Sort ids by a; the number of inversions of b-ranks in that order is
  // the number of discordant pairs (tau-a: ties count as discordant
  // half-pairs are ignored — fine for continuous scores).
  const auto ranks_b = ranks_by_score(b);
  std::vector<u32> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](u32 x, u32 y) {
    if (a[x] != a[y]) return a[x] > a[y];
    return ranks_b[x] < ranks_b[y];
  });
  std::vector<u32> seq(n);
  for (std::size_t i = 0; i < n; ++i) seq[i] = ranks_b[order[i]];
  std::vector<u32> scratch(n);
  const u64 discordant = count_inversions(seq, scratch, 0, n);
  const f64 pairs = static_cast<f64>(n) * static_cast<f64>(n - 1) / 2.0;
  return 1.0 - 2.0 * static_cast<f64>(discordant) / pairs;
}

f64 spearman_footrule(std::span<const f64> a, std::span<const f64> b) {
  SRSR_CHECK(a.size() == b.size(), "spearman_footrule: size mismatch");
  const std::size_t n = a.size();
  if (n < 2) return 0.0;
  const auto ra = ranks_by_score(a);
  const auto rb = ranks_by_score(b);
  f64 total = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    total += std::abs(static_cast<f64>(ra[i]) - static_cast<f64>(rb[i]));
  // Maximum footrule is n^2/2 (even n) — normalize against it.
  const f64 max_footrule = static_cast<f64>(n) * static_cast<f64>(n) / 2.0;
  return total / max_footrule;
}

f64 top_k_overlap(std::span<const f64> a, std::span<const f64> b, u32 k) {
  SRSR_CHECK(k > 0 && k <= a.size() && a.size() == b.size(),
             "top_k_overlap: bad k or size mismatch");
  const auto oa = order_desc(a);
  const auto ob = order_desc(b);
  std::vector<u32> ta(oa.begin(), oa.begin() + k);
  std::vector<u32> tb(ob.begin(), ob.begin() + k);
  std::sort(ta.begin(), ta.end());
  std::sort(tb.begin(), tb.end());
  std::vector<u32> inter;
  std::set_intersection(ta.begin(), ta.end(), tb.begin(), tb.end(),
                        std::back_inserter(inter));
  return static_cast<f64>(inter.size()) / static_cast<f64>(k);
}

}  // namespace srsr::metrics
