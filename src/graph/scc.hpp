// Strongly connected components and web macro-structure.
//
// Web-graph substrate: SCC decomposition (iterative Tarjan — web graphs
// blow the stack on the recursive form) and the classic "bow-tie"
// decomposition (Broder et al.) relative to the largest SCC: CORE / IN
// (reaches the core) / OUT (reached from the core) /
// DISCONNECTED-or-TENDRILS (the rest). Used by the dataset reports and
// as a structural sanity check on generated corpora.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "util/common.hpp"

namespace srsr::graph {

struct SccResult {
  /// node -> component id; components are numbered in REVERSE
  /// topological order of the component DAG (an edge u->v with
  /// different components implies component[u] >= component[v]).
  std::vector<NodeId> component;
  u32 num_components = 0;

  /// Size of each component.
  std::vector<u32> component_size() const;
  /// Id of a largest component.
  NodeId largest_component() const;
};

/// Tarjan's algorithm, iterative. O(V + E).
SccResult strongly_connected_components(const Graph& g);

/// Bow-tie decomposition relative to the largest SCC.
struct BowTie {
  u64 core = 0;      // nodes in the largest SCC
  u64 in = 0;        // reach the core, not in it
  u64 out = 0;       // reachable from the core, not in it
  u64 other = 0;     // tendrils, tubes, disconnected
};
BowTie bow_tie(const Graph& g);

}  // namespace srsr::graph
