#include "rank/gauss_seidel.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace srsr::rank {

RankResult gauss_seidel_solve(const ThrottledView& op,
                              const SolverConfig& config) {
  SRSR_CHECK(std::isfinite(config.alpha) && config.alpha >= 0.0 &&
                 config.alpha < 1.0,
             "gauss_seidel: alpha = ", config.alpha, ", must be in [0, 1)");
  const NodeId n = op.num_rows();
  RankResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }
  WallTimer timer;

  std::vector<f64> teleport;
  if (config.teleport) {
    teleport = *config.teleport;
    SRSR_CHECK(teleport.size() == n, "gauss_seidel: teleport size mismatch (",
               teleport.size(), " entries, ", n, " rows)");
    f64 sum = 0.0;
    for (const f64 v : teleport) {
      SRSR_CHECK(std::isfinite(v), "gauss_seidel: teleport entry not finite");
      SRSR_CHECK(v >= 0.0,
                 "gauss_seidel: teleport entries must be non-negative");
      sum += v;
    }
    SRSR_CHECK(sum > 0.0, "gauss_seidel: teleport must have positive mass");
    for (f64& v : teleport) v /= sum;
  } else {
    teleport.assign(n, 1.0 / static_cast<f64>(n));
  }

  const f64 alpha = config.alpha;

  std::vector<f64> x(n, 1.0 / static_cast<f64>(n));
  if (config.initial) {
    const auto& init = *config.initial;
    SRSR_CHECK(init.size() == n, "gauss_seidel: initial size mismatch (",
               init.size(), " entries, ", n, " rows)");
    f64 sum = 0.0;
    for (const f64 v : init) {
      SRSR_CHECK(std::isfinite(v), "gauss_seidel: initial entry not finite");
      SRSR_CHECK(v >= 0.0,
                 "gauss_seidel: initial entries must be non-negative");
      sum += v;
    }
    SRSR_CHECK(sum > 0.0, "gauss_seidel: initial must have positive mass");
    for (NodeId v = 0; v < n; ++v) x[v] = init[v] / sum;
  }
  std::vector<f64> prev(n);
  obs::IterationTrace* const trace = config.convergence.trace;
  f64 first_residual = 0.0;

  // srsr:hot gauss-seidel-sweep — prev/x are fixed-size; `prev = x`
  // copies element-wise into already-owned storage.
  for (u32 iter = 0; iter < config.convergence.max_iterations; ++iter) {
    prev = x;
    for (NodeId v = 0; v < n; ++v) {
      const f64 acc = op.pull_off_diagonal(v, x);
      const f64 denom = 1.0 - alpha * op.diagonal(v);
      x[v] = (alpha * acc + (1.0 - alpha) * teleport[v]) / denom;
    }
    result.iterations = iter + 1;
    result.residual = config.convergence.distance(prev, x);
    if (iter == 0) first_residual = result.residual;
    if (trace)
      trace->on_iteration({iter + 1, result.residual, linf_distance(prev, x),
                           timer.seconds()});
    if (result.residual < config.convergence.tolerance) {
      result.converged = true;
      break;
    }
  }
  // srsr:endhot

  f64 sum = 0.0;
  for (const f64 v : x) sum += v;
  if (sum > 0.0)
    for (f64& v : x) v /= sum;
  result.scores = std::move(x);
  SRSR_DEBUG_VALIDATE(validate_probability_vector(result.scores, 1e-6,
                                                  "gauss_seidel output"));
  result.seconds = timer.seconds();
  result.trace = obs::make_trace_summary(result.iterations, first_residual,
                                         result.residual);
  if (obs::metrics_enabled()) {
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter("srsr.rank.gauss_seidel.solves").add();
    reg.counter("srsr.rank.gauss_seidel.iterations").add(result.iterations);
    reg.histogram("srsr.rank.gauss_seidel.seconds").observe(result.seconds);
  }
  return result;
}

RankResult gauss_seidel_solve(const StochasticMatrix& matrix,
                              const SolverConfig& config) {
  const StochasticMatrix transpose = matrix.transpose();
  const ThrottledView op(matrix, transpose, identity_plan(matrix));
  return gauss_seidel_solve(op, config);
}

}  // namespace srsr::rank
