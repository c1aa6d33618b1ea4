#include "rank/push.hpp"

#include <cmath>
#include <deque>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace srsr::rank {

namespace {

std::vector<f64> make_teleport(const PushConfig& config, NodeId n) {
  if (!config.teleport) return std::vector<f64>(n, 1.0 / static_cast<f64>(n));
  const auto& t = *config.teleport;
  SRSR_CHECK(t.size() == n, "push: teleport size mismatch (", t.size(),
             " entries, ", n, " rows)");
  f64 sum = 0.0;
  for (const f64 v : t) {
    SRSR_CHECK(std::isfinite(v), "push: teleport entry is not finite");
    SRSR_CHECK(v >= 0.0, "push: teleport entries must be non-negative");
    sum += v;
  }
  SRSR_CHECK(sum > 0.0, "push: teleport must have positive mass");
  std::vector<f64> out(t);
  for (f64& v : out) v /= sum;
  return out;
}

}  // namespace

PushResult push_continue(const PushConfig& config, std::vector<f64> p,
                         std::vector<f64> r, const RowAccessor& row_of,
                         std::vector<f64>* residual_out) {
  SRSR_CHECK(std::isfinite(config.alpha) && config.alpha >= 0.0 &&
                 config.alpha < 1.0,
             "push: alpha = ", config.alpha, ", must be in [0, 1)");
  SRSR_CHECK(std::isfinite(config.epsilon) && config.epsilon > 0.0,
             "push: epsilon must be positive and finite");
  const NodeId n = static_cast<NodeId>(p.size());
  SRSR_CHECK(r.size() == n, "push_continue: state size mismatch (", p.size(),
             " estimate / ", r.size(), " residual entries)");
  const f64 alpha = config.alpha;
  PushResult result;
  WallTimer timer;

  std::deque<NodeId> queue;
  std::vector<bool> in_queue(n, false);
  std::vector<bool> ever_pushed(n, false);
  for (NodeId u = 0; u < n; ++u) {
    if (std::abs(r[u]) >= config.epsilon) {
      queue.push_back(u);
      in_queue[u] = true;
    }
  }

  obs::IterationTrace* const trace = config.trace;
  u32 sweeps = 0;

  // srsr:hot push-loop — the work-queue core of local push. The deque
  // frontier is inherently dynamic; its growth is the algorithm's data
  // structure, not an accident, so those lines carry explicit waivers.
  while (!queue.empty()) {
    if (config.max_pushes != 0 && result.pushes >= config.max_pushes) break;
    const NodeId u = queue.front();
    queue.pop_front();
    in_queue[u] = false;
    const f64 ru = r[u];
    if (std::abs(ru) < config.epsilon) continue;
    ++result.pushes;
    if (trace && result.pushes % n == 0)
      trace->on_iteration({++sweeps, std::abs(ru), std::abs(ru),
                           timer.seconds()});
    if (!ever_pushed[u]) {
      ever_pushed[u] = true;
      ++result.touched;
    }
    p[u] += (1.0 - alpha) * ru;
    r[u] = 0.0;
    const OperatorRow row = row_of(u);
    const auto cs = row.cols;
    const auto ws = row.weights;
    for (std::size_t i = 0; i < cs.size(); ++i) {
      const NodeId v = cs[i];
      r[v] += alpha * ws[i] * ru;
      if (!in_queue[v] && std::abs(r[v]) >= config.epsilon) {
        queue.push_back(v);  // srsr-analyze: allow(hotloop): frontier deque is the push algorithm's state
        in_queue[v] = true;
      }
    }
  }
  // srsr:endhot

  result.converged = true;
  for (const f64 v : r) {
    result.max_residual = std::max(result.max_residual, std::abs(v));
    if (std::abs(v) >= config.epsilon) result.converged = false;
  }
  if (trace)
    trace->on_iteration({sweeps + 1, result.max_residual, result.max_residual,
                         timer.seconds()});

  if (residual_out) *residual_out = std::move(r);

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
  const NodeId n = matrix.num_rows();
  return push_continue(config, std::vector<f64>(n, 0.0),
                       make_teleport(config, n), [&](NodeId u) {
                         return OperatorRow{matrix.row_cols(u),
                                            matrix.row_weights(u)};
                       });
}

PushResult push_solve(const ThrottledView& view, const PushConfig& config) {
  const NodeId n = view.num_rows();
  std::vector<NodeId> cols_scratch;
  std::vector<f64> weights_scratch;
  return push_continue(config, std::vector<f64>(n, 0.0),
                       make_teleport(config, n), [&](NodeId u) {
                         return view.row(u, cols_scratch, weights_scratch);
                       });
}

}  // namespace srsr::rank
