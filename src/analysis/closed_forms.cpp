#include "analysis/closed_forms.hpp"

#include "util/check.hpp"

namespace srsr::analysis {

namespace {
void check_alpha(f64 alpha) {
  SRSR_CHECK(alpha >= 0.0 && alpha < 1.0, "analysis: alpha must be in [0, 1)");
}
void check_kappa(f64 kappa) {
  SRSR_CHECK(kappa >= 0.0 && kappa <= 1.0, "analysis: kappa must be in [0, 1]");
}
}  // namespace

f64 single_source_score(f64 alpha, u64 S, f64 self_weight, f64 z) {
  check_alpha(alpha);
  SRSR_CHECK(S > 0, "analysis: S must be positive");
  SRSR_CHECK(self_weight >= 0.0 && self_weight <= 1.0,
             "analysis: self weight must be in [0, 1]");
  return (alpha * z + (1.0 - alpha) / static_cast<f64>(S)) /
         (1.0 - alpha * self_weight);
}

f64 optimal_single_source_score(f64 alpha, u64 S, f64 z) {
  return single_source_score(alpha, S, 1.0, z);
}

f64 self_tuning_gain(f64 alpha, f64 kappa) {
  check_alpha(alpha);
  check_kappa(kappa);
  return (1.0 - alpha * kappa) / (1.0 - alpha);
}

f64 collusion_contribution(f64 alpha, u64 S, u32 x, f64 kappa, f64 z_i) {
  check_alpha(alpha);
  check_kappa(kappa);
  SRSR_CHECK(S > 0, "analysis: S must be positive");
  const f64 sigma_i = single_source_score(alpha, S, kappa, z_i);
  return alpha / (1.0 - alpha) * static_cast<f64>(x) * (1.0 - kappa) *
         sigma_i;
}

f64 target_score_with_colluders(f64 alpha, u64 S, u32 x, f64 kappa, f64 z0,
                                f64 z_i) {
  return optimal_single_source_score(alpha, S, z0) +
         collusion_contribution(alpha, S, x, kappa, z_i);
}

f64 extra_sources_ratio(f64 alpha, f64 kappa_old, f64 kappa_new) {
  check_alpha(alpha);
  check_kappa(kappa_old);
  check_kappa(kappa_new);
  SRSR_CHECK(kappa_new < 1.0,
             "extra_sources_ratio: kappa' = 1 kills all influence (ratio "
             "diverges)");
  SRSR_CHECK(kappa_old < 1.0, "extra_sources_ratio: kappa must be < 1");
  return (1.0 - alpha * kappa_new) / (1.0 - alpha * kappa_old) *
         (1.0 - kappa_old) / (1.0 - kappa_new);
}

f64 pagerank_target_score(f64 alpha, u64 P, u64 tau, f64 z) {
  check_alpha(alpha);
  SRSR_CHECK(P > 0, "analysis: P must be positive");
  const f64 teleport = (1.0 - alpha) / static_cast<f64>(P);
  return z + teleport + static_cast<f64>(tau) * alpha * teleport;
}

f64 pagerank_collusion_gain(f64 alpha, u64 P, u64 tau) {
  check_alpha(alpha);
  SRSR_CHECK(P > 0, "analysis: P must be positive");
  return static_cast<f64>(tau) * alpha * (1.0 - alpha) / static_cast<f64>(P);
}

f64 pagerank_amplification(f64 alpha, u64 P, u64 tau, f64 z) {
  return pagerank_target_score(alpha, P, tau, z) /
         pagerank_target_score(alpha, P, 0, z);
}

f64 srsr_scenario1_amplification(f64 alpha, f64 kappa) {
  // All collusion is intra-source: with the target configured optimally
  // the farm is invisible at source level; the only gain is self-tuning.
  return self_tuning_gain(alpha, kappa);
}

f64 srsr_scenario2_amplification(f64 alpha, f64 kappa) {
  check_alpha(alpha);
  check_kappa(kappa);
  return 1.0 + alpha * (1.0 - kappa) / (1.0 - alpha * kappa);
}

f64 srsr_scenario3_amplification(f64 alpha, u32 x, f64 kappa) {
  check_alpha(alpha);
  check_kappa(kappa);
  return 1.0 + static_cast<f64>(x) * alpha * (1.0 - kappa) /
                   (1.0 - alpha * kappa);
}

}  // namespace srsr::analysis
