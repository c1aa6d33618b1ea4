// Whole-graph transformations. All return new immutable Graphs.
#pragma once

#include "graph/graph.hpp"

namespace srsr::graph {

/// Edge-reversed graph: (u,v) becomes (v,u). This is the first step of
/// the paper's spam-proximity computation (Sec. 5), which walks the
/// *inverted* source graph.
Graph reverse(const Graph& g);

}  // namespace srsr::graph
