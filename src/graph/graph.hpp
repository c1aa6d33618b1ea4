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
//   - the two arrays live in shared immutable storage, so copying a
//     Graph shares them instead of duplicating them: a holder of the
//     page graph (the dynamic source graph, a solver) costs a pointer,
//     not a second copy of the crawl. Raw pointers into the arrays sit
//     next to the shared owner, so out_neighbors is one load per array.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "util/common.hpp"

namespace srsr::graph {

class Graph {
 public:
  /// Empty graph.
  Graph() : Graph(std::vector<u64>(1, 0), {}) {}

  /// Constructs from raw CSR arrays, taking them over without a copy.
  /// offsets.size() == num_nodes + 1, offsets.front() == 0,
  /// offsets.back() == targets.size(), each neighbor list sorted
  /// ascending and within range. Validated.
  Graph(std::vector<u64> offsets, std::vector<NodeId> targets);

  NodeId num_nodes() const { return num_nodes_; }
  u64 num_edges() const { return offsets_[num_nodes_]; }

  u64 out_degree(NodeId u) const {
    return offsets_[u + 1] - offsets_[u];
  }

  /// Sorted successors of u; the span aliases the shared arrays and is
  /// valid while this Graph or any copy of it lives.
  std::span<const NodeId> out_neighbors(NodeId u) const {
    return {targets_ + offsets_[u], targets_ + offsets_[u + 1]};
  }

  /// O(log out_degree(u)) membership test.
  bool has_edge(NodeId u, NodeId v) const;

  /// Nodes with no out-edges ("dangling" pages, a first-class concern
  /// for PageRank normalization).
  std::vector<NodeId> dangling_nodes() const;
  u64 num_dangling() const;

  /// In-degree of every node (one O(E) pass).
  std::vector<u64> in_degrees() const;

  /// Structural equality: same CSR values, whether or not the two
  /// graphs share their arrays.
  bool operator==(const Graph& other) const;

  std::span<const u64> offsets() const {
    return {offsets_, static_cast<std::size_t>(num_nodes_) + 1};
  }
  std::span<const NodeId> targets() const {
    return {targets_, num_edges()};
  }

  /// Heap bytes of the arrays this graph references, capacity
  /// included. Copies share the arrays, so their bytes do not add up.
  u64 memory_bytes() const;

 private:
  struct Arrays {
    std::vector<u64> offsets;    // size num_nodes + 1
    std::vector<NodeId> targets; // size num_edges, sorted per node
  };
  std::shared_ptr<const Arrays> arrays_;
  // Views of arrays_, cached so the kernels pay no extra indirection.
  const u64* offsets_ = nullptr;
  const NodeId* targets_ = nullptr;
  NodeId num_nodes_ = 0;
};

}  // namespace srsr::graph
