// Tests for the immutable CSR Graph (graph/graph.hpp) and the shared
// host table (graph/host_index.hpp).
#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/host_index.hpp"
#include "util/check.hpp"

namespace srsr::graph {
namespace {

Graph triangle() {
  // 0 -> 1, 1 -> 2, 2 -> 0
  return Graph({0, 1, 2, 3}, {1, 2, 0});
}

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, BasicAccessors) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.out_degree(0), 1u);
  ASSERT_EQ(g.out_neighbors(1).size(), 1u);
  EXPECT_EQ(g.out_neighbors(1)[0], 2u);
}

TEST(Graph, HasEdge) {
  const Graph g = triangle();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, HasEdgeOutOfRangeThrows) {
  const Graph g = triangle();
  EXPECT_THROW(g.has_edge(3, 0), Error);
  EXPECT_THROW(g.has_edge(0, 3), Error);
}

TEST(Graph, DanglingNodes) {
  // 0 -> 1, 2 has no out-edges.
  const Graph g({0, 1, 1, 1}, {1});
  const auto dangling = g.dangling_nodes();
  ASSERT_EQ(dangling.size(), 2u);
  EXPECT_EQ(dangling[0], 1u);
  EXPECT_EQ(dangling[1], 2u);
  EXPECT_EQ(g.num_dangling(), 2u);
}

TEST(Graph, InDegrees) {
  const Graph g({0, 2, 3, 3}, {1, 2, 2});  // 0->1, 0->2, 1->2
  const auto in = g.in_degrees();
  EXPECT_EQ(in[0], 0u);
  EXPECT_EQ(in[1], 1u);
  EXPECT_EQ(in[2], 2u);
}

TEST(Graph, SelfLoopAllowed) {
  const Graph g({0, 1}, {0});
  EXPECT_TRUE(g.has_edge(0, 0));
}

TEST(Graph, ValidationRejectsUnsortedNeighbors) {
  EXPECT_THROW(Graph({0, 2}, {1, 0}), Error);
}

TEST(Graph, ValidationRejectsDuplicateNeighbors) {
  EXPECT_THROW(Graph({0, 2, 2}, {1, 1}), Error);
}

TEST(Graph, ValidationRejectsOutOfRangeTarget) {
  EXPECT_THROW(Graph({0, 1}, {5}), Error);
}

TEST(Graph, ValidationRejectsBadOffsets) {
  EXPECT_THROW(Graph({1, 2}, {0}), Error);          // doesn't start at 0
  EXPECT_THROW(Graph({0, 2}, {0}), Error);          // end != targets size
  EXPECT_THROW(Graph({}, {}), Error);               // empty offsets
}

TEST(Graph, EqualityIsStructural) {
  EXPECT_EQ(triangle(), triangle());
  const Graph other({0, 1, 2, 3}, {2, 0, 1});  // reversed triangle
  EXPECT_NE(triangle(), other);
}

TEST(Graph, MemoryBytesAccounting) {
  const Graph g = triangle();
  EXPECT_EQ(g.memory_bytes(), 4 * sizeof(u64) + 3 * sizeof(NodeId));
  // The bytes of the referenced arrays, capacity included; a copy
  // references the same arrays and reports the same bytes.
  std::vector<NodeId> targets{1, 2, 0};
  targets.reserve(64);
  const Graph roomy({0, 1, 2, 3}, std::move(targets));
  EXPECT_EQ(roomy.memory_bytes(), 4 * sizeof(u64) + 64 * sizeof(NodeId));
  EXPECT_EQ(Graph(roomy).memory_bytes(), roomy.memory_bytes());
}

TEST(Graph, CopySharesArraysAndOutlivesOriginal) {
  auto original = std::make_unique<Graph>(triangle());
  const Graph copy = *original;
  EXPECT_EQ(copy.targets().data(), original->targets().data());
  EXPECT_EQ(copy.offsets().data(), original->offsets().data());
  EXPECT_EQ(copy, *original);
  original.reset();
  EXPECT_EQ(copy, triangle());  // value equality, separate arrays
  EXPECT_EQ(copy.num_edges(), 3u);
  EXPECT_TRUE(copy.has_edge(2, 0));
  EXPECT_EQ(copy.out_neighbors(1)[0], 2u);
}

TEST(HostIndex, ResolvesNamesBothWays) {
  std::vector<std::string> names;
  for (int i = 0; i < 1000; ++i)
    names.push_back("host-" + std::to_string(i) + ".example");
  const HostIndex index(names);
  ASSERT_EQ(index.size(), 1000u);
  EXPECT_EQ(index.names(), names);
  for (NodeId id = 0; id < index.size(); ++id) {
    EXPECT_EQ(index.name(id), names[id]);
    EXPECT_EQ(index.id_of(names[id]), id);
  }
  EXPECT_FALSE(index.id_of("host-1000.example").has_value());
  EXPECT_FALSE(index.id_of("").has_value());
  EXPECT_FALSE(HostIndex({}).id_of("a").has_value());
}

TEST(HostIndex, RejectsDuplicateNames) {
  try {
    const HostIndex index({"a.example", "b.example", "a.example"});
    FAIL() << "duplicate host name accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("'a.example'"), std::string::npos)
        << e.what();
  }
  const HostIndexPtr base =
      std::make_shared<const HostIndex>(std::vector<std::string>{"a.example"});
  const std::vector<std::string> again = {"b.example", "a.example"};
  EXPECT_THROW(base->with_added(again), ContractViolation);
}

TEST(HostIndex, WithAddedLeavesTheOriginalAsItIs) {
  const HostIndexPtr base = Hosts().resolve(3, "test");
  const std::vector<std::string> added = {"x.example", "y.example"};
  const HostIndexPtr grown = base->with_added(added);
  EXPECT_EQ(base->size(), 3u);
  EXPECT_FALSE(base->id_of("x.example").has_value());
  ASSERT_EQ(grown->size(), 5u);
  EXPECT_EQ(grown->name(2), "s2");
  EXPECT_EQ(grown->id_of("y.example"), 4u);
}

TEST(Hosts, ResolveSharesIndexesAndChecksTheCount) {
  const HostIndexPtr index =
      std::make_shared<const HostIndex>(std::vector<std::string>{"a", "b"});
  EXPECT_EQ(Hosts(index).resolve(2, "test"), index);
  EXPECT_THROW(Hosts(index).resolve(3, "test"), ContractViolation);
  EXPECT_EQ(Hosts().resolve(2, "test")->name(1), "s1");
  EXPECT_EQ(Hosts(std::vector<std::string>{"p", "q"}).resolve(2, "t")->name(0),
            "p");
  EXPECT_THROW(Hosts(std::vector<std::string>{"p"}).resolve(2, "test"),
               ContractViolation);
}

}  // namespace
}  // namespace srsr::graph
