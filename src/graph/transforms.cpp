#include "graph/transforms.hpp"

#include <vector>

#include "util/common.hpp"

namespace srsr::graph {

Graph reverse(const Graph& g) {
  // Direct CSR transposition (counting sort by target) — cheaper than
  // going through GraphBuilder and already yields sorted lists because
  // we scan sources in increasing order.
  const NodeId n = g.num_nodes();
  std::vector<u64> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const NodeId v : g.targets()) ++offsets[v + 1];
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  std::vector<NodeId> targets(g.num_edges());
  std::vector<u64> cursor(offsets.begin(), offsets.end() - 1);
  for (NodeId u = 0; u < n; ++u)
    for (const NodeId v : g.out_neighbors(u)) targets[cursor[v]++] = u;
  return Graph(std::move(offsets), std::move(targets));
}

}  // namespace srsr::graph
