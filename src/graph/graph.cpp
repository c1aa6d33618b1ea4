#include "graph/graph.hpp"

#include <algorithm>
#include "util/check.hpp"

namespace srsr::graph {

Graph::Graph(std::vector<u64> offsets, std::vector<NodeId> targets) {
  SRSR_CHECK(!offsets.empty(), "Graph: offsets must have at least one entry");
  SRSR_CHECK(offsets.front() == 0, "Graph: offsets must start at 0");
  SRSR_CHECK(offsets.back() == targets.size(),
        "Graph: offsets must end at targets.size()");
  arrays_ = std::make_shared<const Arrays>(
      Arrays{std::move(offsets), std::move(targets)});
  offsets_ = arrays_->offsets.data();
  targets_ = arrays_->targets.data();
  num_nodes_ = static_cast<NodeId>(arrays_->offsets.size() - 1);
  const NodeId n = num_nodes_;
  for (NodeId u = 0; u < n; ++u) {
    SRSR_CHECK(offsets_[u] <= offsets_[u + 1], "Graph: offsets must be monotone");
    const auto nbrs = out_neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      SRSR_CHECK(nbrs[i] < n, "Graph: target id out of range");
      if (i > 0)
        SRSR_CHECK(nbrs[i - 1] < nbrs[i],
              "Graph: neighbor lists must be sorted and duplicate-free");
    }
  }
}

bool Graph::operator==(const Graph& other) const {
  return std::ranges::equal(offsets(), other.offsets()) &&
         std::ranges::equal(targets(), other.targets());
}

u64 Graph::memory_bytes() const {
  return arrays_->offsets.capacity() * sizeof(u64) +
         arrays_->targets.capacity() * sizeof(NodeId);
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  SRSR_CHECK(u < num_nodes() && v < num_nodes(), "Graph::has_edge: id out of range");
  const auto nbrs = out_neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<NodeId> Graph::dangling_nodes() const {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < num_nodes(); ++u)
    if (out_degree(u) == 0) out.push_back(u);
  return out;
}

u64 Graph::num_dangling() const {
  u64 count = 0;
  for (NodeId u = 0; u < num_nodes(); ++u)
    if (out_degree(u) == 0) ++count;
  return count;
}

std::vector<u64> Graph::in_degrees() const {
  std::vector<u64> in(num_nodes(), 0);
  for (const NodeId v : targets()) ++in[v];
  return in;
}

}  // namespace srsr::graph
