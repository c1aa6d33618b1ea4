#include "graph/generators.hpp"

#include <cmath>

#include "graph/builder.hpp"
#include "util/check.hpp"

namespace srsr::graph {

Graph complete(NodeId n) {
  SRSR_CHECK(n > 0, "complete: n must be positive");
  std::vector<u64> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeId> targets;
  targets.reserve(static_cast<std::size_t>(n) * (n - 1));
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v)
      if (v != u) targets.push_back(v);
    offsets[u + 1] = targets.size();
  }
  return Graph(std::move(offsets), std::move(targets));
}

Graph cycle(NodeId n) {
  SRSR_CHECK(n > 0, "cycle: n must be positive");
  std::vector<u64> offsets(static_cast<std::size_t>(n) + 1);
  std::vector<NodeId> targets(n);
  for (NodeId u = 0; u < n; ++u) {
    offsets[u] = u;
    targets[u] = (u + 1) % n;
  }
  offsets[n] = n;
  return Graph(std::move(offsets), std::move(targets));
}

Graph path(NodeId n) {
  SRSR_CHECK(n > 0, "path: n must be positive");
  std::vector<u64> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeId> targets;
  targets.reserve(n - 1);
  for (NodeId u = 0; u + 1 < n; ++u) {
    targets.push_back(u + 1);
    offsets[u + 1] = targets.size();
  }
  offsets[n] = targets.size();
  return Graph(std::move(offsets), std::move(targets));
}

Graph star(NodeId n, bool bidirectional) {
  SRSR_CHECK(n >= 2, "star: need at least a hub and one leaf");
  GraphBuilder b(n);
  for (NodeId leaf = 1; leaf < n; ++leaf) {
    b.add_edge(leaf, 0);
    if (bidirectional) b.add_edge(0, leaf);
  }
  return b.build();
}

Graph erdos_renyi(NodeId n, f64 p, Pcg32& rng) {
  SRSR_CHECK(n > 0, "erdos_renyi: n must be positive");
  SRSR_CHECK(p >= 0.0 && p <= 1.0, "erdos_renyi: p = ", p,
             ", must be in [0,1]");
  GraphBuilder b(n);
  if (p <= 0.0) return b.build();
  if (p >= 1.0) return complete(n);
  // Geometric skipping over the n*(n-1) candidate slots.
  const f64 log1mp = std::log1p(-p);
  const u64 slots = static_cast<u64>(n) * (n - 1);
  u64 idx = 0;
  for (;;) {
    const f64 u = 1.0 - rng.next_real();  // in (0, 1]
    const u64 skip = static_cast<u64>(std::floor(std::log(u) / log1mp));
    idx += skip;
    if (idx >= slots) break;
    const NodeId src = static_cast<NodeId>(idx / (n - 1));
    NodeId dst = static_cast<NodeId>(idx % (n - 1));
    if (dst >= src) ++dst;  // skip the diagonal
    b.add_edge(src, dst);
    ++idx;
  }
  return b.build();
}

Graph barabasi_albert(NodeId n, u32 m, Pcg32& rng) {
  SRSR_CHECK(n > m && m > 0, "barabasi_albert: need n > m > 0");
  GraphBuilder b(n);
  // The classic trick: maintain a repeated-endpoints array where each
  // node appears once per incident edge endpoint (+1 initial mass);
  // sampling uniformly from it implements (in-degree + 1) preference.
  std::vector<NodeId> urn;
  urn.reserve(static_cast<std::size_t>(n) * (m + 1));
  for (NodeId seed = 0; seed < m; ++seed) urn.push_back(seed);
  for (NodeId u = m; u < n; ++u) {
    // Draw m distinct earlier targets.
    std::vector<NodeId> picks;
    picks.reserve(m);
    u32 attempts = 0;
    while (picks.size() < m && attempts < 16 * m) {
      const NodeId t = urn[rng.next_below(static_cast<u32>(urn.size()))];
      ++attempts;
      bool dup = false;
      for (const NodeId q : picks) dup |= (q == t);
      if (!dup) picks.push_back(t);
    }
    // Degenerate early phase: fall back to the first distinct nodes.
    for (NodeId t = 0; picks.size() < m && t < u; ++t) {
      bool dup = false;
      for (const NodeId q : picks) dup |= (q == t);
      if (!dup) picks.push_back(t);
    }
    for (const NodeId t : picks) {
      b.add_edge(u, t);
      urn.push_back(t);
    }
    urn.push_back(u);
  }
  return b.build();
}

}  // namespace srsr::graph
