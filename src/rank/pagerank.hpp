// PageRank over an unweighted page graph (Page et al., 1998).
//
// This is the baseline the paper attacks: pi = alpha * M^T pi + (1-alpha) e
// (Eq. 1), solved by the power method on the teleportation-completed
// Markov chain. It runs through the stationary-iteration driver of
// rank/solvers.hpp with its own graph kernel:
//
//   - Pull iteration over the reverse graph: next[v] is accumulated from
//     v's in-neighbors, so rows parallelize with no atomics (the reverse
//     graph is built once per solver, reused across re-runs on the same
//     topology — the attack harness re-ranks many variants).
//   - Dangling pages: their mass is redistributed according to the
//     teleport vector every iteration (the standard strong-preference
//     completion), keeping the iterate a probability distribution.
//   - Personalized teleport: pass a non-uniform `teleport` distribution
//     (used by TrustRank and by the paper's spam-proximity walk).
//   - Warm start: SolverConfig::initial; the attack harness re-ranks
//     graphs that differ by a handful of edges from the previous
//     solution.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "rank/solvers.hpp"
#include "util/common.hpp"

namespace srsr::rank {

/// Reusable PageRank solver bound to one graph topology.
class PageRank {
 public:
  explicit PageRank(const graph::Graph& g);

  /// The solver for the reverse of `g` (every edge flipped), built
  /// without reversing: the pull walks g's own out-lists, with
  /// 1/in-degree weights, and nodes with no in-edges dangle. Scores
  /// are bitwise identical to PageRank(graph::reverse(g)).
  // srsr-analyze: allow(contract): every Graph is valid input; its constructor checked it.
  static PageRank over_reverse(const graph::Graph& g);

  /// Runs the power method from the uniform start vector (or the
  /// config's warm start).
  RankResult solve(const SolverConfig& config) const;

 private:
  PageRank(graph::Graph in_lists, const std::vector<u64>& out_degree);

  graph::Graph in_lists_;           // row v: the nodes linking to v
  std::vector<f64> inv_out_degree_; // 1/out_degree, 0 for dangling
  std::vector<NodeId> dangling_;
};

/// One-shot convenience wrapper.
RankResult pagerank(const graph::Graph& g, const SolverConfig& config = {});

}  // namespace srsr::rank
