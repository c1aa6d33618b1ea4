#include "rank/solvers.hpp"

#include <cmath>
#include <string>

#include "graph/transforms.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "rank/pagerank.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace srsr::rank {

namespace {

void validate_distribution(const std::vector<f64>& v, NodeId n,
                           const char* what) {
  SRSR_CHECK(v.size() == n, "solver: ", what, " vector size mismatch (",
             v.size(), " entries, ", n, " rows)");
  f64 sum = 0.0;
  for (const f64 x : v) {
    SRSR_CHECK(std::isfinite(x), "solver: ", what, " entry is not finite");
    SRSR_CHECK(x >= 0.0, "solver: ", what, " entries must be non-negative");
    sum += x;
  }
  SRSR_CHECK(sum > 0.0, "solver: ", what, " vector must have positive mass");
}

/// `v` L1-normalized, or the uniform distribution when absent; `v` has
/// passed validate_solver_config.
std::vector<f64> distribution(const std::optional<std::vector<f64>>& v,
                              NodeId n) {
  if (!v) return std::vector<f64>(n, 1.0 / static_cast<f64>(n));
  f64 sum = 0.0;
  for (const f64 x : *v) sum += x;
  std::vector<f64> out(*v);
  for (f64& x : out) x /= sum;
  return out;
}

/// The one stationary-iteration loop. `step(cur, next, teleport)` writes
/// x_{k+1} into `next` from x_k = `cur`; the loop owns everything else:
/// the start vector (uniform or the warm start), the stop rule, the
/// trace hook, the final L1 normalization, the output contract and the
/// srsr.rank.<name>.* metrics. `span_name` must be the literal
/// "rank.<name>.solve" (the span ring stores the pointer).
template <typename Step>
RankResult iterate(NodeId n, const SolverConfig& config, const char* name,
                   const char* span_name, const Step& step) {
  obs::Span span(span_name);
  RankResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }
  WallTimer timer;

  const std::vector<f64> teleport = distribution(config.teleport, n);
  std::vector<f64> cur = distribution(config.initial, n);
  std::vector<f64> next(n, 0.0);
  obs::IterationTrace* const trace = config.convergence.trace;
  f64 first_residual = 0.0;

  // srsr:hot stationary-iteration — the steady-state loop of every
  // solve; all buffers (cur/next/teleport) are sized once above.
  for (u32 iter = 0; iter < config.convergence.max_iterations; ++iter) {
    step(cur, next, teleport);
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
  // paper's sigma/||sigma|| step for the linear routes.
  f64 sum = 0.0;
  for (const f64 v : cur) sum += v;
  if (sum > 0.0)
    for (f64& v : cur) v /= sum;

  result.scores = std::move(cur);
  // The output contract of Eq. 2/3: a finite probability distribution.
  // O(V); live in debug/sanitizer builds only.
  SRSR_DEBUG_VALIDATE(validate_probability_vector(result.scores, 1e-6, name));
  result.seconds = timer.seconds();
  result.trace = obs::make_trace_summary(result.iterations, first_residual,
                                         result.residual);
  if (obs::metrics_enabled()) {
    const std::string prefix = std::string("srsr.rank.") + name;
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter(prefix + ".solves").add();
    reg.counter(prefix + ".iterations").add(result.iterations);
    reg.histogram(prefix + ".seconds").observe(result.seconds);
  }
  return result;
}

/// The power / Jacobi step over a ThrottledView:
///   next = alpha * (A^T cur + m * c) + (1 - alpha) * c.
/// On the power route (`complete_deficits`) m is the per-row
/// probability-deficit mass — dangling rows and throttle-discarded mass
/// re-routed to the teleport distribution c; on the Jacobi route m = 0:
/// deficit mass evaporates and the final normalization absorbs it.
auto pull_step(const ThrottledView& op, f64 alpha, bool complete_deficits) {
  return [&op, alpha, complete_deficits](const std::vector<f64>& cur,
                                         std::vector<f64>& next,
                                         const std::vector<f64>& teleport) {
    // srsr:hot pull-step
    const std::vector<f64>& deficits = op.deficits();
    f64 deficit_mass = 0.0;
    if (complete_deficits) {
      // Deterministic variant: the deficit mass feeds every score (and
      // through them the residual trace), so its rounding must not
      // depend on the thread count — solver traces replay bit-identically
      // on any machine.
      deficit_mass = parallel_sum_deterministic(
          0, cur.size(), [&](std::size_t r) { return cur[r] * deficits[r]; });
    }
    op.pull(cur, next);
    parallel_for(0, next.size(), [&](std::size_t v) {
      next[v] = alpha * (next[v] + deficit_mass * teleport[v]) +
                (1.0 - alpha) * teleport[v];
    });
    // srsr:endhot
  };
}

std::vector<u64> out_degrees(const graph::Graph& g) {
  std::vector<u64> d(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) d[u] = g.out_degree(u);
  return d;
}

}  // namespace

void validate_solver_config(f64 alpha,
                            const std::optional<std::vector<f64>>& teleport,
                            const std::optional<std::vector<f64>>& initial,
                            NodeId n) {
  SRSR_CHECK(std::isfinite(alpha) && alpha >= 0.0 && alpha < 1.0,
             "solver: alpha = ", alpha, ", must be in [0, 1)");
  if (teleport) validate_distribution(*teleport, n, "teleport");
  if (initial) validate_distribution(*initial, n, "initial");
}

RankResult power_solve(const ThrottledView& op, const SolverConfig& config) {
  validate_solver_config(config.alpha, config.teleport, config.initial,
                         op.num_rows());
  return iterate(op.num_rows(), config, "power", "rank.power.solve",
                 pull_step(op, config.alpha, /*complete_deficits=*/true));
}

RankResult jacobi_solve(const ThrottledView& op, const SolverConfig& config) {
  validate_solver_config(config.alpha, config.teleport, config.initial,
                         op.num_rows());
  return iterate(op.num_rows(), config, "jacobi", "rank.jacobi.solve",
                 pull_step(op, config.alpha, /*complete_deficits=*/false));
}

RankResult power_solve(const StochasticMatrix& matrix,
                       const SolverConfig& config) {
  const StochasticMatrix transpose = matrix.transpose();
  return power_solve(ThrottledView(matrix, transpose, identity_plan(matrix)),
                     config);
}

RankResult jacobi_solve(const StochasticMatrix& matrix,
                        const SolverConfig& config) {
  const StochasticMatrix transpose = matrix.transpose();
  return jacobi_solve(ThrottledView(matrix, transpose, identity_plan(matrix)),
                      config);
}

PageRank::PageRank(graph::Graph in_lists, const std::vector<u64>& out_degree)
    : in_lists_(std::move(in_lists)) {
  const NodeId n = in_lists_.num_nodes();
  inv_out_degree_.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    const u64 d = out_degree[u];
    inv_out_degree_[u] = d == 0 ? 0.0 : 1.0 / static_cast<f64>(d);
    if (d == 0) dangling_.push_back(u);
  }
}

PageRank::PageRank(const graph::Graph& g)
    : PageRank(graph::reverse(g), out_degrees(g)) {}

PageRank PageRank::over_reverse(const graph::Graph& g) {
  // The reverse of g has g as its in-lists and g's in-degrees as its
  // out-degrees (reverse(reverse(g)) == g exactly).
  return PageRank(g, g.in_degrees());
}

RankResult PageRank::solve(const SolverConfig& config) const {
  const NodeId n = in_lists_.num_nodes();
  validate_solver_config(config.alpha, config.teleport, config.initial, n);
  const f64 alpha = config.alpha;
  // The power step over the reverse graph, fused into one pass per row;
  // mass parked on dangling pages teleports.
  const auto step = [this, alpha](const std::vector<f64>& cur,
                                  std::vector<f64>& next,
                                  const std::vector<f64>& teleport) {
    // srsr:hot pagerank-step
    f64 dangling_mass = 0.0;
    for (const NodeId u : dangling_) dangling_mass += cur[u];
    parallel_for(0, next.size(), [&](std::size_t v) {
      f64 acc = 0.0;
      for (const NodeId u : in_lists_.out_neighbors(static_cast<NodeId>(v)))
        acc += cur[u] * inv_out_degree_[u];
      next[v] = alpha * (acc + dangling_mass * teleport[v]) +
                (1.0 - alpha) * teleport[v];
    });
    // srsr:endhot
  };
  return iterate(n, config, "pagerank", "rank.pagerank.solve", step);
}

RankResult pagerank(const graph::Graph& g, const SolverConfig& config) {
  return PageRank(g).solve(config);
}

}  // namespace srsr::rank
