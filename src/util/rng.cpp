#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace srsr {

Pcg32::Pcg32(u64 seed, u64 seq) : state_(0), inc_((seq << 1u) | 1u) {
  // Standard PCG32 seeding sequence.
  next_u32();
  state_ += seed;
  next_u32();
}

u32 Pcg32::next_u32() {
  const u64 old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const u32 xorshifted = static_cast<u32>(((old >> 18u) ^ old) >> 27u);
  const u32 rot = static_cast<u32>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

u64 Pcg32::next_u64() {
  return (static_cast<u64>(next_u32()) << 32) | next_u32();
}

u32 Pcg32::next_below(u32 bound) {
  SRSR_CHECK(bound > 0, "Pcg32::next_below: bound must be positive");
  // Lemire's nearly-divisionless unbiased bounded draw.
  u64 m = static_cast<u64>(next_u32()) * bound;
  u32 l = static_cast<u32>(m);
  if (l < bound) {
    const u32 t = (0u - bound) % bound;
    while (l < t) {
      m = static_cast<u64>(next_u32()) * bound;
      l = static_cast<u32>(m);
    }
  }
  return static_cast<u32>(m >> 32);
}

f64 Pcg32::next_real() {
  // 53 random bits into [0,1).
  return static_cast<f64>(next_u64() >> 11) * 0x1.0p-53;
}

f64 Pcg32::next_real(f64 lo, f64 hi) {
  SRSR_CHECK(lo <= hi, "Pcg32::next_real: lo must be <= hi");
  return lo + (hi - lo) * next_real();
}

bool Pcg32::next_bool(f64 p) { return next_real() < p; }

std::vector<u32> sample_without_replacement(Pcg32& rng, u32 n, u32 k) {
  SRSR_CHECK(k <= n, "sample_without_replacement: k must be <= n");
  // Floyd's algorithm: for j in n-k..n-1, pick t in [0, j]; insert t if
  // unseen else insert j. Yields a uniform k-subset.
  std::vector<u32> out;
  out.reserve(k);
  for (u32 j = n - k; j < n; ++j) {
    const u32 t = rng.next_below(j + 1);
    bool seen = false;
    for (const u32 v : out) {
      if (v == t) {
        seen = true;
        break;
      }
    }
    out.push_back(seen ? j : t);
  }
  // Sorted output makes downstream use (set membership, planting) easier
  // and keeps the result independent of insertion order details.
  std::sort(out.begin(), out.end());
  return out;
}

ZipfSampler::ZipfSampler(u32 n, f64 exponent) : exponent_(exponent) {
  SRSR_CHECK(n > 0, "ZipfSampler: n must be positive");
  SRSR_CHECK(exponent > 0.0, "ZipfSampler: exponent must be positive");
  cdf_.resize(n);
  f64 acc = 0.0;
  for (u32 i = 0; i < n; ++i) {
    acc += std::pow(static_cast<f64>(i + 1), -exponent);
    cdf_[i] = acc;
  }
  for (u32 i = 0; i < n; ++i) cdf_[i] /= acc;
  cdf_[n - 1] = 1.0;  // guard against rounding at the tail
}

u32 ZipfSampler::sample(Pcg32& rng) const {
  const f64 u = rng.next_real();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<u32>(it - cdf_.begin()) + 1;
}

AliasSampler::AliasSampler(const std::vector<f64>& weights) {
  const u32 n = static_cast<u32>(weights.size());
  SRSR_CHECK(n > 0, "AliasSampler: weights must be non-empty");
  f64 sum = 0.0;
  for (const f64 w : weights) {
    SRSR_CHECK(w >= 0.0, "AliasSampler: weights must be non-negative");
    sum += w;
  }
  SRSR_CHECK(sum > 0.0, "AliasSampler: weight sum must be positive");

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<f64> scaled(n);
  for (u32 i = 0; i < n; ++i) scaled[i] = weights[i] * n / sum;

  std::vector<u32> small, large;
  small.reserve(n);
  large.reserve(n);
  for (u32 i = 0; i < n; ++i) (scaled[i] < 1.0 ? small : large).push_back(i);

  while (!small.empty() && !large.empty()) {
    const u32 s = small.back();
    small.pop_back();
    const u32 l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (const u32 i : large) prob_[i] = 1.0;
  for (const u32 i : small) prob_[i] = 1.0;  // numerical leftovers
}

u32 AliasSampler::sample(Pcg32& rng) const {
  const u32 i = rng.next_below(n());
  return rng.next_real() < prob_[i] ? i : alias_[i];
}

}  // namespace srsr
