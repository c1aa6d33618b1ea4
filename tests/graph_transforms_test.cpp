// Tests for whole-graph transforms (graph/transforms.hpp).
#include "graph/transforms.hpp"

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace srsr::graph {
namespace {

TEST(Reverse, ReversesEveryEdge) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  const Graph g = b.build();
  const Graph r = reverse(g);
  EXPECT_TRUE(r.has_edge(1, 0));
  EXPECT_TRUE(r.has_edge(2, 1));
  EXPECT_TRUE(r.has_edge(2, 0));
  EXPECT_EQ(r.num_edges(), 3u);
}

TEST(Reverse, IsAnInvolution) {
  Pcg32 rng(9);
  const Graph g = erdos_renyi(60, 0.08, rng);
  EXPECT_EQ(reverse(reverse(g)), g);
}

TEST(Reverse, SelfLoopsPreserved) {
  GraphBuilder b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  const Graph r = reverse(b.build());
  EXPECT_TRUE(r.has_edge(0, 0));
  EXPECT_TRUE(r.has_edge(1, 0));
}

TEST(Reverse, SwapsInAndOutDegrees) {
  Pcg32 rng(10);
  const Graph g = erdos_renyi(40, 0.1, rng);
  const Graph r = reverse(g);
  const auto in = g.in_degrees();
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    EXPECT_EQ(r.out_degree(u), in[u]);
}

}  // namespace
}  // namespace srsr::graph
