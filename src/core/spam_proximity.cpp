#include "core/spam_proximity.hpp"

#include <cmath>

#include "graph/transforms.hpp"
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
  // Invert the source graph: a source pointed TO by many sources in the
  // original graph points to them here, so spam mass flows backwards
  // along citations — onto the sources that endorse spam.
  const graph::Graph inverted = graph::reverse(source_topology);

  std::vector<f64> teleport(inverted.num_nodes(), 0.0);
  for (const NodeId s : spam_seeds) {
    SRSR_CHECK(s < inverted.num_nodes(), "spam_proximity: seed id ", s,
               " out of range (", inverted.num_nodes(), " sources)");
    teleport[s] = 1.0;
  }

  rank::SolverConfig pr;
  pr.alpha = config.beta;
  pr.convergence = config.convergence;
  pr.teleport = std::move(teleport);
  return rank::pagerank(inverted, pr);
}

}  // namespace srsr::core
