#include "core/source_graph.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace srsr::core {

SourceGraph::SourceGraph(const graph::Graph& pages, const SourceMap& map)
    : map_(&map) {
  SRSR_CHECK(pages.num_nodes() == map.num_pages(),
             "SourceGraph: page graph and source map disagree on page count");
  const u32 ns = map.num_sources();

  // Per page: the set of distinct target sources (a page linking to
  // three pages of s_j still contributes 1 to w(s_i, s_j) — the
  // indicator-OR in the paper's consensus formula). We accumulate
  // (origin source, target source) pairs and counting-sort them into a
  // CSR-with-counts.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(pages.num_edges() / 2 + 16);
  std::vector<NodeId> targets_scratch;
  for (NodeId p = 0; p < pages.num_nodes(); ++p) {
    const NodeId sp = map.source_of(p);
    targets_scratch.clear();
    for (const NodeId q : pages.out_neighbors(p))
      targets_scratch.push_back(map.source_of(q));
    std::sort(targets_scratch.begin(), targets_scratch.end());
    targets_scratch.erase(
        std::unique(targets_scratch.begin(), targets_scratch.end()),
        targets_scratch.end());
    for (const NodeId sq : targets_scratch) pairs.emplace_back(sp, sq);
  }

  // Counting sort by origin source.
  std::vector<u64> offsets(static_cast<std::size_t>(ns) + 1, 0);
  for (const auto& [si, sj] : pairs) {
    (void)sj;
    ++offsets[si + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  std::vector<NodeId> raw_targets(pairs.size());
  std::vector<u64> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [si, sj] : pairs) raw_targets[cursor[si]++] = sj;
  pairs.clear();
  pairs.shrink_to_fit();

  // Per-origin sort, then collapse duplicates into consensus counts.
  std::vector<u64> out_offsets(offsets.size(), 0);
  std::vector<NodeId> out_targets;
  out_targets.reserve(raw_targets.size());
  consensus_.reserve(raw_targets.size());
  for (u32 s = 0; s < ns; ++s) {
    const u64 begin = offsets[s], end = offsets[s + 1];
    std::sort(raw_targets.begin() + static_cast<std::ptrdiff_t>(begin),
              raw_targets.begin() + static_cast<std::ptrdiff_t>(end));
    for (u64 i = begin; i < end;) {
      u64 j = i;
      while (j < end && raw_targets[j] == raw_targets[i]) ++j;
      out_targets.push_back(raw_targets[i]);
      consensus_.push_back(static_cast<u32>(j - i));
      i = j;
    }
    out_offsets[s + 1] = out_targets.size();
  }
  topology_ = graph::Graph(std::move(out_offsets), std::move(out_targets));
}

u32 SourceGraph::consensus(NodeId si, NodeId sj) const {
  SRSR_CHECK(si < num_sources() && sj < num_sources(),
             "SourceGraph::consensus: id out of range");
  const auto nbrs = topology_.out_neighbors(si);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), sj);
  if (it == nbrs.end() || *it != sj) return 0;
  const u64 idx = topology_.offsets()[si] +
                  static_cast<u64>(it - nbrs.begin());
  return consensus_[idx];
}

rank::StochasticMatrix SourceGraph::build_matrix(bool consensus_weights,
                                                 bool with_self_edges) const {
  const u32 ns = num_sources();
  std::vector<u64> offsets(static_cast<std::size_t>(ns) + 1, 0);
  std::vector<NodeId> cols;
  std::vector<f64> weights;
  cols.reserve(topology_.num_edges() + (with_self_edges ? ns : 0));
  weights.reserve(cols.capacity());

  for (u32 s = 0; s < ns; ++s) {
    const auto nbrs = topology_.out_neighbors(s);
    const u64 base = topology_.offsets()[s];
    // Raw row weights.
    f64 total = 0.0;
    bool has_self = false;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const f64 w =
          consensus_weights ? static_cast<f64>(consensus_[base + i]) : 1.0;
      total += w;
      has_self |= (nbrs[i] == s);
    }

    if (total <= 0.0) {
      // No out-edges: with augmentation the source becomes a pure
      // self-loop; without it the row stays dangling.
      if (with_self_edges) {
        cols.push_back(s);
        weights.push_back(1.0);
      }
      offsets[s + 1] = cols.size();
      continue;
    }

    bool self_inserted = has_self || !with_self_edges;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      // Keep columns sorted while splicing in a weight-0 self-edge.
      if (!self_inserted && nbrs[i] > s) {
        cols.push_back(s);
        weights.push_back(0.0);
        self_inserted = true;
      }
      const f64 w =
          consensus_weights ? static_cast<f64>(consensus_[base + i]) : 1.0;
      cols.push_back(nbrs[i]);
      weights.push_back(w / total);
    }
    if (!self_inserted) {
      cols.push_back(s);
      weights.push_back(0.0);
    }
    offsets[s + 1] = cols.size();
  }
  return rank::StochasticMatrix(std::move(offsets), std::move(cols),
                                std::move(weights));
}

rank::StochasticMatrix SourceGraph::uniform_matrix(bool with_self_edges) const {
  return build_matrix(/*consensus_weights=*/false, with_self_edges);
}

rank::StochasticMatrix SourceGraph::consensus_matrix(
    bool with_self_edges) const {
  return build_matrix(/*consensus_weights=*/true, with_self_edges);
}

}  // namespace srsr::core
