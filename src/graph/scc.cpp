#include "graph/scc.hpp"

#include <algorithm>

#include "graph/transforms.hpp"

namespace srsr::graph {

std::vector<u32> SccResult::component_size() const {
  std::vector<u32> size(num_components, 0);
  for (const NodeId c : component) ++size[c];
  return size;
}

NodeId SccResult::largest_component() const {
  const auto size = component_size();
  return static_cast<NodeId>(
      std::max_element(size.begin(), size.end()) - size.begin());
}

SccResult strongly_connected_components(const Graph& g) {
  const NodeId n = g.num_nodes();
  SccResult result;
  result.component.assign(n, kInvalidNode);
  if (n == 0) return result;

  constexpr u32 kUnvisited = static_cast<u32>(-1);
  std::vector<u32> index(n, kUnvisited);
  std::vector<u32> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<NodeId> stack;           // Tarjan's component stack
  // Explicit DFS frames: (node, next-neighbor offset).
  struct Frame {
    NodeId node;
    u64 edge;
  };
  std::vector<Frame> frames;
  u32 next_index = 0;

  for (NodeId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    frames.push_back({root, g.offsets()[root]});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!frames.empty()) {
      Frame& top = frames.back();
      const NodeId u = top.node;
      if (top.edge < g.offsets()[u + 1]) {
        const NodeId v = g.targets()[top.edge++];
        if (index[v] == kUnvisited) {
          index[v] = lowlink[v] = next_index++;
          stack.push_back(v);
          on_stack[v] = true;
          frames.push_back({v, g.offsets()[v]});
        } else if (on_stack[v]) {
          lowlink[u] = std::min(lowlink[u], index[v]);
        }
        continue;
      }
      // u is finished: pop a component if u is a root, then propagate
      // the lowlink to the parent.
      if (lowlink[u] == index[u]) {
        const u32 comp = result.num_components++;
        for (;;) {
          const NodeId w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          result.component[w] = comp;
          if (w == u) break;
        }
      }
      frames.pop_back();
      if (!frames.empty()) {
        const NodeId parent = frames.back().node;
        lowlink[parent] = std::min(lowlink[parent], lowlink[u]);
      }
    }
  }
  return result;
}

namespace {

/// BFS reachability from a seed set.
std::vector<bool> reachable(const Graph& g, const std::vector<NodeId>& seeds) {
  std::vector<bool> seen(g.num_nodes(), false);
  std::vector<NodeId> queue;
  for (const NodeId s : seeds) {
    if (!seen[s]) {
      seen[s] = true;
      queue.push_back(s);
    }
  }
  for (std::size_t i = 0; i < queue.size(); ++i) {
    for (const NodeId v : g.out_neighbors(queue[i])) {
      if (!seen[v]) {
        seen[v] = true;
        queue.push_back(v);
      }
    }
  }
  return seen;
}

}  // namespace

BowTie bow_tie(const Graph& g) {
  BowTie result;
  if (g.num_nodes() == 0) return result;
  const auto scc = strongly_connected_components(g);
  const NodeId core_id = scc.largest_component();
  std::vector<NodeId> core_nodes;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    if (scc.component[u] == core_id) core_nodes.push_back(u);

  const auto forward = reachable(g, core_nodes);
  const auto backward = reachable(reverse(g), core_nodes);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const bool in_core = scc.component[u] == core_id;
    if (in_core) {
      ++result.core;
    } else if (backward[u]) {
      ++result.in;
    } else if (forward[u]) {
      ++result.out;
    } else {
      ++result.other;
    }
  }
  return result;
}

}  // namespace srsr::graph
