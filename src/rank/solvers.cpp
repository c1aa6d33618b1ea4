#include "rank/solvers.hpp"

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace srsr::rank {

namespace {

/// The teleport distribution c: uniform when the config has none,
/// otherwise the configured vector validated and L1-normalized.
std::vector<f64> make_teleport(const SolverConfig& config, NodeId n) {
  if (!config.teleport) return std::vector<f64>(n, 1.0 / static_cast<f64>(n));
  const auto& t = *config.teleport;
  SRSR_CHECK(t.size() == n, "solver: teleport vector size mismatch (",
             t.size(), " entries, ", n, " rows)");
  f64 sum = 0.0;
  for (const f64 v : t) {
    SRSR_CHECK(std::isfinite(v), "solver: teleport entry is not finite");
    SRSR_CHECK(v >= 0.0, "solver: teleport entries must be non-negative");
    sum += v;
  }
  SRSR_CHECK(sum > 0.0, "solver: teleport vector must have positive mass");
  std::vector<f64> out(t);
  for (f64& v : out) v /= sum;
  return out;
}

/// The iteration's starting vector: uniform when the config has no
/// initial, otherwise the configured (warm start) vector validated and
/// L1-normalized.
std::vector<f64> make_initial(const SolverConfig& config, NodeId n) {
  if (!config.initial) return std::vector<f64>(n, 1.0 / static_cast<f64>(n));
  const auto& init = *config.initial;
  SRSR_CHECK(init.size() == n, "solver: initial vector size mismatch (",
             init.size(), " entries, ", n, " rows)");
  f64 sum = 0.0;
  for (const f64 v : init) {
    SRSR_CHECK(std::isfinite(v), "solver: initial entry is not finite");
    SRSR_CHECK(v >= 0.0, "solver: initial entries must be non-negative");
    sum += v;
  }
  SRSR_CHECK(sum > 0.0, "solver: initial vector must have positive mass");
  std::vector<f64> out(init);
  for (f64& v : out) v /= sum;
  return out;
}

/// Shared pull-iteration driver over a ThrottledView.
/// `complete_deficits` selects the Markov completion (power method:
/// per-row probability deficits — dangling rows and throttle-discarded
/// mass — are re-routed to the teleport distribution) vs the raw linear
/// form (Jacobi: deficit mass simply evaporates and the final
/// normalization absorbs it).
RankResult iterate(const ThrottledView& op, const SolverConfig& config,
                   bool complete_deficits, const char* solver_name) {
  SRSR_CHECK(std::isfinite(config.alpha) && config.alpha >= 0.0 &&
                 config.alpha < 1.0,
             "solver: alpha = ", config.alpha, ", must be in [0, 1)");
  const NodeId n = op.num_rows();
  // Span names must be literals (the ring stores the pointer), so pick
  // between the two fixed solver names rather than composing one.
  obs::Span span(solver_name[0] == 'p' ? "rank.power.solve"
                                       : "rank.jacobi.solve");
  RankResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }
  WallTimer timer;

  const std::vector<f64> teleport = make_teleport(config, n);
  const std::vector<f64>& deficits = op.deficits();
  const f64 alpha = config.alpha;

  std::vector<f64> cur = make_initial(config, n);
  std::vector<f64> next(n, 0.0);
  obs::IterationTrace* const trace = config.convergence.trace;
  f64 first_residual = 0.0;

  // srsr:hot pull-iteration — the steady-state loop of every solve;
  // all buffers (cur/next/teleport) are sized once above.
  for (u32 iter = 0; iter < config.convergence.max_iterations; ++iter) {
    f64 deficit_mass = 0.0;
    if (complete_deficits) {
      // Deterministic variant: the deficit mass feeds every score (and
      // through them the residual trace), so its rounding must not
      // depend on the thread count — solver traces replay bit-identically
      // on any machine.
      deficit_mass = parallel_sum_deterministic(
          0, n, [&](std::size_t r) { return cur[r] * deficits[r]; });
    }

    op.pull(cur, next);
    parallel_for(0, n, [&](std::size_t v) {
      next[v] = alpha * (next[v] + deficit_mass * teleport[v]) +
                (1.0 - alpha) * teleport[v];
    });

    result.iterations = iter + 1;
    result.residual = config.convergence.distance(cur, next);
    if (iter == 0) first_residual = result.residual;
    if (trace)
      trace->on_iteration({iter + 1, result.residual,
                           linf_distance(cur, next), timer.seconds()});
    cur.swap(next);
    if (result.residual < config.convergence.tolerance) {
      result.converged = true;
      break;
    }
  }
  // srsr:endhot

  // Normalize to a distribution: exact for the power route, and the
  // paper's sigma/||sigma|| step for the linear route.
  f64 sum = 0.0;
  for (const f64 v : cur) sum += v;
  if (sum > 0.0)
    for (f64& v : cur) v /= sum;

  result.scores = std::move(cur);
  // The output contract of Eq. 2/3: a finite probability distribution.
  // O(V); live in debug/sanitizer builds only.
  SRSR_DEBUG_VALIDATE(
      validate_probability_vector(result.scores, 1e-6, "solver output"));
  result.seconds = timer.seconds();
  result.trace = obs::make_trace_summary(result.iterations, first_residual,
                                         result.residual);
  if (obs::metrics_enabled()) {
    const std::string prefix = std::string("srsr.rank.") + solver_name;
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter(prefix + ".solves").add();
    reg.counter(prefix + ".iterations").add(result.iterations);
    reg.histogram(prefix + ".seconds").observe(result.seconds);
  }
  return result;
}

}  // namespace

RankResult power_solve(const StochasticMatrix& matrix,
                       const SolverConfig& config) {
  const StochasticMatrix transpose = matrix.transpose();
  const ThrottledView op(matrix, transpose, identity_plan(matrix));
  return iterate(op, config, /*complete_deficits=*/true, "power");
}

RankResult jacobi_solve(const StochasticMatrix& matrix,
                        const SolverConfig& config) {
  const StochasticMatrix transpose = matrix.transpose();
  const ThrottledView op(matrix, transpose, identity_plan(matrix));
  return iterate(op, config, /*complete_deficits=*/false, "jacobi");
}

RankResult power_solve(const ThrottledView& op, const SolverConfig& config) {
  return iterate(op, config, /*complete_deficits=*/true, "power");
}

RankResult jacobi_solve(const ThrottledView& op, const SolverConfig& config) {
  return iterate(op, config, /*complete_deficits=*/false, "jacobi");
}

}  // namespace srsr::rank
