#include "core/spam_proximity.hpp"

#include <cmath>

#include "util/check.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_timer.hpp"
#include "rank/pagerank.hpp"

namespace srsr::core {

rank::RankResult spam_proximity(const graph::Graph& source_topology,
                                const std::vector<NodeId>& spam_seeds,
                                const SpamProximityConfig& config) {
  SRSR_CHECK(!spam_seeds.empty(), "spam_proximity: seed set must be non-empty");
  SRSR_CHECK(std::isfinite(config.beta) && config.beta >= 0.0 &&
                 config.beta < 1.0,
             "spam_proximity: beta = ", config.beta, ", must be in [0, 1)");
  obs::StageTimer stage("core.spam_proximity");
  if (obs::metrics_enabled())
    obs::MetricsRegistry::instance()
        .counter("srsr.core.spam_proximity.solves")
        .add();
  // Walk the inverted source graph: a source pointed TO by many sources
  // in the original graph points to them there, so spam mass flows
  // backwards along citations — onto the sources that endorse spam.
  // PageRank::over_reverse pulls over the forward topology directly.
  const NodeId n = source_topology.num_nodes();
  std::vector<f64> teleport(n, 0.0);
  for (const NodeId s : spam_seeds) {
    SRSR_CHECK(s < n, "spam_proximity: seed id ", s, " out of range (", n,
               " sources)");
    teleport[s] = 1.0;
  }

  rank::SolverConfig pr;
  pr.alpha = config.beta;
  pr.convergence = config.convergence;
  pr.teleport = std::move(teleport);
  return rank::PageRank::over_reverse(source_topology).solve(pr);
}

}  // namespace srsr::core
