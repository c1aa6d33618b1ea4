// Immutable directed graph in Compressed Sparse Row (CSR) layout.
//
// This is the page-graph / source-graph backbone of the library. Design
// points, following the compact-data-structure guidance of the C++ Core
// Guidelines performance section:
//   - 32-bit node ids and 64-bit edge offsets: adjacency is the dominant
//     allocation, and halving id width doubles effective bandwidth in
//     the rank kernels.
//   - neighbors are stored sorted, which (a) enables O(log d) has_edge
//     and (b) makes iteration cache-predictable.
//   - the structure is immutable after construction; all mutation goes
//     through GraphBuilder, so concurrent readers need no locks.
#pragma once

#include <span>
#include <vector>

#include "util/common.hpp"

namespace srsr::graph {

class Graph {
 public:
  /// Empty graph.
  Graph() : offsets_(1, 0) {}

  /// Constructs from raw CSR arrays. offsets.size() == num_nodes + 1,
  /// offsets.front() == 0, offsets.back() == targets.size(), each
  /// neighbor list sorted ascending and within range. Validated.
  Graph(std::vector<u64> offsets, std::vector<NodeId> targets);

  NodeId num_nodes() const { return static_cast<NodeId>(offsets_.size() - 1); }
  u64 num_edges() const { return offsets_.back(); }

  u64 out_degree(NodeId u) const {
    return offsets_[u + 1] - offsets_[u];
  }

  /// Sorted successors of u; the span aliases internal storage and is
  /// valid for the lifetime of the Graph.
  std::span<const NodeId> out_neighbors(NodeId u) const {
    return {targets_.data() + offsets_[u],
            targets_.data() + offsets_[u + 1]};
  }

  /// O(log out_degree(u)) membership test.
  bool has_edge(NodeId u, NodeId v) const;

  /// Nodes with no out-edges ("dangling" pages, a first-class concern
  /// for PageRank normalization).
  std::vector<NodeId> dangling_nodes() const;
  u64 num_dangling() const;

  /// In-degree of every node (one O(E) pass).
  std::vector<u64> in_degrees() const;

  /// Structural equality (same CSR arrays).
  bool operator==(const Graph& other) const = default;

  const std::vector<u64>& offsets() const { return offsets_; }
  const std::vector<NodeId>& targets() const { return targets_; }

  /// Approximate heap footprint in bytes.
  u64 memory_bytes() const {
    return offsets_.size() * sizeof(u64) + targets_.size() * sizeof(NodeId);
  }

 private:
  std::vector<u64> offsets_;    // size num_nodes + 1
  std::vector<NodeId> targets_; // size num_edges, sorted per node
};

}  // namespace srsr::graph
