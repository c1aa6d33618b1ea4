#include "rank/trustrank.hpp"

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace srsr::rank {

RankResult trustrank(const graph::Graph& g,
                     const std::vector<NodeId>& trusted_seeds,
                     const TrustRankConfig& config) {
  SRSR_CHECK(!trusted_seeds.empty(), "trustrank: seed set must be non-empty");
  std::vector<f64> teleport(g.num_nodes(), 0.0);
  for (const NodeId s : trusted_seeds) {
    SRSR_CHECK(s < g.num_nodes(), "trustrank: seed id out of range");
    teleport[s] = 1.0;
  }
  SolverConfig pr;
  pr.alpha = config.alpha;
  // The trace pointer rides along in the copied Convergence, so an
  // attached IterationTrace observes the underlying PageRank solve.
  pr.convergence = config.convergence;
  pr.teleport = std::move(teleport);
  if (obs::metrics_enabled())
    obs::MetricsRegistry::instance().counter("srsr.rank.trustrank.solves").add();
  return pagerank(g, pr);
}

}  // namespace srsr::rank
