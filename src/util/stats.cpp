#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace srsr {

Summary summarize(std::span<const f64> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.min = values[0];
  s.max = values[0];
  f64 sum = 0.0;
  for (const f64 v : values) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.sum = sum;
  s.mean = sum / static_cast<f64>(values.size());
  f64 ss = 0.0;
  for (const f64 v : values) {
    const f64 d = v - s.mean;
    ss += d * d;
  }
  s.stddev = std::sqrt(ss / static_cast<f64>(values.size()));
  return s;
}

f64 quantile(std::span<const f64> values, f64 q) {
  SRSR_CHECK(!values.empty(), "quantile: empty sample");
  SRSR_CHECK(q >= 0.0 && q <= 1.0, "quantile: q must be in [0,1]");
  std::vector<f64> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const f64 pos = q * static_cast<f64>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const f64 frac = pos - static_cast<f64>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

f64 l1_distance(std::span<const f64> a, std::span<const f64> b) {
  SRSR_CHECK(a.size() == b.size(), "l1_distance: size mismatch");
  f64 d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::abs(a[i] - b[i]);
  return d;
}

f64 l2_distance(std::span<const f64> a, std::span<const f64> b) {
  SRSR_CHECK(a.size() == b.size(), "l2_distance: size mismatch");
  f64 d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const f64 diff = a[i] - b[i];
    d += diff * diff;
  }
  return std::sqrt(d);
}

f64 linf_distance(std::span<const f64> a, std::span<const f64> b) {
  SRSR_CHECK(a.size() == b.size(), "linf_distance: size mismatch");
  f64 d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    d = std::max(d, std::abs(a[i] - b[i]));
  return d;
}

f64 kahan_sum(std::span<const f64> values) {
  f64 sum = 0.0, c = 0.0;
  for (const f64 v : values) {
    const f64 y = v - c;
    const f64 t = sum + y;
    c = (t - sum) - y;
    sum = t;
  }
  return sum;
}

}  // namespace srsr
