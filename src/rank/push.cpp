#include "rank/push.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "rank/solvers.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace srsr::rank {

namespace {

/// The seed residual r = c: the configured teleport (checked by the
/// solvers' validate_solver_config) L1-normalized, or uniform.
std::vector<f64> make_teleport(const PushConfig& config, NodeId n) {
  validate_solver_config(config.alpha, config.teleport, std::nullopt, n);
  if (!config.teleport) return std::vector<f64>(n, 1.0 / static_cast<f64>(n));
  std::vector<f64> out(*config.teleport);
  f64 sum = 0.0;
  for (const f64 v : out) sum += v;
  for (f64& v : out) v /= sum;
  return out;
}

/// While the frontier holds more than n / kDenseFrontier rows, the loop
/// sweeps all rows in id order instead of popping the FIFO: once a good
/// share of the rows is active, a scan is cheaper than queue traffic.
constexpr NodeId kDenseFrontier = 16;

}  // namespace

PushResult push_continue(const PushConfig& config, std::vector<f64> p,
                         std::vector<f64> r, const RowAffinePlan& plan,
                         const RowAccessor& row_of,
                         std::vector<f64>* residual_out,
                         std::vector<NodeId>* pushed_out) {
  obs::Span span("rank.push.solve");
  SRSR_CHECK(std::isfinite(config.alpha) && config.alpha >= 0.0 &&
                 config.alpha < 1.0,
             "push: alpha = ", config.alpha, ", must be in [0, 1)");
  SRSR_CHECK(std::isfinite(config.epsilon) && config.epsilon > 0.0,
             "push: epsilon must be positive and finite");
  const NodeId n = static_cast<NodeId>(p.size());
  SRSR_CHECK(r.size() == n, "push_continue: state size mismatch (", p.size(),
             " estimate / ", r.size(), " residual entries)");
  SRSR_CHECK(plan.off_scale.size() == n && plan.diagonal.size() == n,
             "push_continue: plan has ", plan.off_scale.size(), " / ",
             plan.diagonal.size(), " rows for ", n, " state entries");
  SRSR_DEBUG_VALIDATE(validate_plan(plan, n, 1e-9, "push_continue"));
  const f64 alpha = config.alpha;
  const f64 eps = config.epsilon;
  const f64* const scale = plan.off_scale.data();
  const f64* const diag = plan.diagonal.data();
  PushResult result;
  WallTimer timer;

  // active[u] <=> u is in the frontier; every |r_u| >= eps row is. The
  // FIFO is a ring over all n rows: a row is queued at most once.
  std::vector<u8> active(n, 0);
  std::vector<u8> ever_pushed(n, 0);
  std::vector<NodeId> ring(n);
  NodeId frontier = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (std::abs(r[u]) >= eps) {
      active[u] = 1;
      ++frontier;
    }
  }
  const NodeId dense = n / kDenseFrontier;
  bool fifo = false;  // ring holds the frontier (else: sweeping)
  NodeId head = 0;

  obs::IterationTrace* const trace = config.trace;
  u32 records = 0;
  const auto at_cap = [&] {
    return config.max_pushes != 0 && result.pushes >= config.max_pushes;
  };

  // srsr:hot push-loop — the closed-form push and both frontier orders.
  const auto push = [&](NodeId u) {
    const f64 ru = r[u];
    ++result.pushes;
    if (trace && result.pushes % n == 0)
      trace->on_iteration({++records, std::abs(ru), std::abs(ru),
                           timer.seconds()});
    if (!ever_pushed[u]) {
      ever_pushed[u] = 1;
      ++result.touched;
    }
    // The self-loop's geometric series in one step: k leaves u, of
    // which (1-alpha)k settles and alpha*A_uv*k moves to each v != u.
    const f64 k = ru / (1.0 - alpha * diag[u]);
    p[u] += (1.0 - alpha) * k;
    r[u] = 0.0;
    const f64 forward = alpha * scale[u] * k;
    const OperatorRow row = row_of(u);
    const auto cs = row.cols;
    const auto ws = row.weights;
    for (std::size_t i = 0; i < cs.size(); ++i) {
      const NodeId v = cs[i];
      if (v == u) continue;
      r[v] += forward * ws[i];
      if (!active[v] && std::abs(r[v]) >= eps) {
        active[v] = 1;
        if (fifo) {
          const u64 tail = u64{head} + frontier;
          ring[tail < n ? tail : tail - n] = v;
        }
        ++frontier;
      }
    }
  };

  while (frontier > 0 && !at_cap()) {
    if (frontier > dense) {
      // Dense frontier: one ascending-id sweep over every active row.
      fifo = false;
      for (NodeId u = 0; u < n; ++u) {
        if (!active[u]) continue;
        if (at_cap()) break;
        active[u] = 0;
        --frontier;
        if (std::abs(r[u]) >= eps) push(u);
      }
      continue;
    }
    if (!fifo) {
      // Sparse again: queue the frontier in id order.
      NodeId tail = 0;
      for (NodeId u = 0; u < n; ++u)
        if (active[u]) ring[tail++] = u;
      head = 0;
      fifo = true;
    }
    const NodeId u = ring[head];
    head = head + 1 < n ? head + 1 : 0;
    active[u] = 0;
    --frontier;
    if (std::abs(r[u]) >= eps) push(u);
  }
  // srsr:endhot

  result.converged = true;
  for (const f64 v : r) {
    result.max_residual = std::max(result.max_residual, std::abs(v));
    if (std::abs(v) >= eps) result.converged = false;
  }
  if (trace)
    trace->on_iteration({records + 1, result.max_residual,
                         result.max_residual, timer.seconds()});

  if (residual_out) *residual_out = std::move(r);
  if (pushed_out) {
    pushed_out->clear();
    for (NodeId u = 0; u < n; ++u)
      if (ever_pushed[u]) pushed_out->push_back(u);
  }

  if (config.normalize) {
    // Tiny negative leftovers can survive signed pushes (bounded by the
    // residual tolerance); clamp before normalizing to a distribution.
    f64 sum = 0.0;
    for (f64& v : p) {
      if (v < 0.0) v = 0.0;
      sum += v;
    }
    if (sum > 0.0)
      for (f64& v : p) v /= sum;
  }
  result.scores = std::move(p);
  if (config.normalize)
    SRSR_DEBUG_VALIDATE(
        validate_probability_vector(result.scores, 1e-6, "push output"));
  result.seconds = timer.seconds();
  if (obs::metrics_enabled()) {
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter("srsr.rank.push.solves").add();
    reg.counter("srsr.rank.push.pushes").add(result.pushes);
    reg.histogram("srsr.rank.push.seconds").observe(result.seconds);
  }
  return result;
}

PushResult push_solve(const StochasticMatrix& matrix,
                      const PushConfig& config) {
  SRSR_DEBUG_VALIDATE(validate_row_stochastic(matrix, 1e-9, "push_solve"));
  const NodeId n = matrix.num_rows();
  return push_continue(config, std::vector<f64>(n, 0.0),
                       make_teleport(config, n), identity_plan(matrix),
                       [&](NodeId u) {
                         return OperatorRow{matrix.row_cols(u),
                                            matrix.row_weights(u)};
                       });
}

PushResult push_solve(const ThrottledView& view, const PushConfig& config) {
  const NodeId n = view.num_rows();
  const StochasticMatrix& base = view.base();
  return push_continue(config, std::vector<f64>(n, 0.0),
                       make_teleport(config, n), view.plan(), [&](NodeId u) {
                         return OperatorRow{base.row_cols(u),
                                            base.row_weights(u)};
                       });
}

}  // namespace srsr::rank
