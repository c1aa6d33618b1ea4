// Graph fixtures shared by the rank tests.
#pragma once

#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "util/common.hpp"

namespace srsr::fixture {

/// `g` with a self-loop on every node (the paper's Sec. 3.3
/// augmentation: "all sources have a self-edge"); existing self-loops
/// are kept once.
inline graph::Graph with_self_loops(const graph::Graph& g) {
  graph::GraphBuilder b(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) b.add_edge(u, u);
  return b.build();
}

}  // namespace srsr::fixture
