// Tests for SCC decomposition and bow-tie analysis (graph/scc.hpp).
#include "graph/scc.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace srsr::graph {
namespace {

TEST(Scc, EmptyGraph) {
  const auto scc = strongly_connected_components(Graph());
  EXPECT_EQ(scc.num_components, 0u);
}

TEST(Scc, CycleIsOneComponent) {
  const auto scc = strongly_connected_components(cycle(6));
  EXPECT_EQ(scc.num_components, 1u);
  for (const NodeId c : scc.component) EXPECT_EQ(c, scc.component[0]);
}

TEST(Scc, PathIsAllSingletons) {
  const auto scc = strongly_connected_components(path(5));
  EXPECT_EQ(scc.num_components, 5u);
  std::set<NodeId> distinct(scc.component.begin(), scc.component.end());
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(Scc, TwoCyclesWithBridge) {
  // cycle {0,1,2} -> bridge -> cycle {3,4}
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 3);
  const auto scc = strongly_connected_components(b.build());
  EXPECT_EQ(scc.num_components, 2u);
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_EQ(scc.component[0], scc.component[2]);
  EXPECT_EQ(scc.component[3], scc.component[4]);
  EXPECT_NE(scc.component[0], scc.component[3]);
}

TEST(Scc, ComponentNumberingIsReverseTopological) {
  // Edge u->v across components implies component[u] >= component[v]
  // (Tarjan emits sink components first).
  Pcg32 rng(81);
  const Graph g = erdos_renyi(60, 0.05, rng);
  const auto scc = strongly_connected_components(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const NodeId v : g.out_neighbors(u))
      EXPECT_GE(scc.component[u], scc.component[v]);
}

TEST(Scc, ComponentSizesSumToNodeCount) {
  Pcg32 rng(82);
  const Graph g = erdos_renyi(100, 0.03, rng);
  const auto scc = strongly_connected_components(g);
  const auto sizes = scc.component_size();
  u64 total = 0;
  for (const u32 s : sizes) {
    EXPECT_GT(s, 0u);
    total += s;
  }
  EXPECT_EQ(total, 100u);
}

TEST(Scc, SelfLoopIsItsOwnComponent) {
  GraphBuilder b(2);
  b.add_edge(0, 0);
  const auto scc = strongly_connected_components(b.build());
  EXPECT_EQ(scc.num_components, 2u);
}

TEST(Scc, DeepChainDoesNotOverflowStack) {
  // 200k-node path: the recursive Tarjan would blow the stack here.
  const NodeId n = 200000;
  const auto scc = strongly_connected_components(path(n));
  EXPECT_EQ(scc.num_components, n);
}

TEST(BowTie, HandCraftedDecomposition) {
  // in(0) -> core{1,2} -> out(3); 4 disconnected.
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 1);
  b.add_edge(2, 3);
  const auto bt = bow_tie(b.build());
  EXPECT_EQ(bt.core, 2u);
  EXPECT_EQ(bt.in, 1u);
  EXPECT_EQ(bt.out, 1u);
  EXPECT_EQ(bt.other, 1u);
}

TEST(BowTie, PartitionCoversAllNodes) {
  Pcg32 rng(83);
  const Graph g = erdos_renyi(150, 0.02, rng);
  const auto bt = bow_tie(g);
  EXPECT_EQ(bt.core + bt.in + bt.out + bt.other, 150u);
  EXPECT_GT(bt.core, 0u);
}

TEST(BowTie, StronglyConnectedGraphIsAllCore) {
  const auto bt = bow_tie(cycle(10));
  EXPECT_EQ(bt.core, 10u);
  EXPECT_EQ(bt.in + bt.out + bt.other, 0u);
}

}  // namespace
}  // namespace srsr::graph
