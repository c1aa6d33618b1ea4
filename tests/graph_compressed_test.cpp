// Tests for the BV-style CompressedGraph (graph/compressed.hpp):
// exact round-trips over many graph families, plus compression-quality
// sanity on web-like inputs.
#include "graph/compressed.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/webgen.hpp"
#include "util/rng.hpp"

namespace srsr::graph {
namespace {

TEST(CompressedGraph, EmptyGraph) {
  const Graph g;
  const CompressedGraph c(g);
  EXPECT_EQ(c.num_nodes(), 0u);
  EXPECT_EQ(c.num_edges(), 0u);
  EXPECT_EQ(c.decompress(), g);
}

TEST(CompressedGraph, SingleNodeNoEdges) {
  GraphBuilder b(1);
  const Graph g = b.build();
  const CompressedGraph c(g);
  EXPECT_EQ(c.out_degree(0), 0u);
  EXPECT_EQ(c.decompress(), g);
}

TEST(CompressedGraph, SelfLoopOnly) {
  GraphBuilder b(3);
  b.add_edge(1, 1);
  const Graph g = b.build();
  EXPECT_EQ(CompressedGraph(g).decompress(), g);
}

TEST(CompressedGraph, ConsecutiveRunBecomesInterval) {
  // Node 0 links to 10..29 — one long interval.
  GraphBuilder b(40);
  for (NodeId v = 10; v < 30; ++v) b.add_edge(0, v);
  const Graph g = b.build();
  const CompressedGraph c(g);
  EXPECT_EQ(c.decompress(), g);
  // Interval coding must crush this: far fewer than 6 bits/edge.
  EXPECT_LT(c.bits_per_edge(), 6.0);
}

TEST(CompressedGraph, MixedIntervalsAndResiduals) {
  GraphBuilder b(100);
  // interval [20,27], residuals {3, 50, 90}, interval [60,65]
  for (NodeId v = 20; v <= 27; ++v) b.add_edge(5, v);
  for (NodeId v = 60; v <= 65; ++v) b.add_edge(5, v);
  b.add_edge(5, 3);
  b.add_edge(5, 50);
  b.add_edge(5, 90);
  const Graph g = b.build();
  std::vector<NodeId> decoded;
  CompressedGraph(g).decode(5, decoded);
  EXPECT_EQ(decoded.size(), g.out_degree(5));
  const auto expect = g.out_neighbors(5);
  for (std::size_t i = 0; i < decoded.size(); ++i)
    EXPECT_EQ(decoded[i], expect[i]);
}

TEST(CompressedGraph, BackwardGapsEncodeFine) {
  // Successors entirely below the node id exercise the zig-zag path.
  GraphBuilder b(100);
  b.add_edge(99, 0);
  b.add_edge(99, 1);
  b.add_edge(99, 98);
  const Graph g = b.build();
  EXPECT_EQ(CompressedGraph(g).decompress(), g);
}

TEST(CompressedGraph, OutDegreeWithoutFullDecode) {
  const Graph g = complete(20);
  const CompressedGraph c(g);
  for (NodeId u = 0; u < 20; ++u) EXPECT_EQ(c.out_degree(u), 19u);
}

TEST(CompressedGraph, DecodeOutOfRangeThrows) {
  const Graph g = cycle(4);
  const CompressedGraph c(g);
  std::vector<NodeId> out;
  EXPECT_THROW(c.decode(4, out), Error);
  EXPECT_THROW(c.out_degree(4), Error);
}

TEST(CompressedGraph, CompleteGraphIsOneInterval) {
  const Graph g = complete(50);
  const CompressedGraph c(g);
  EXPECT_EQ(c.decompress(), g);
  EXPECT_LT(c.bits_per_edge(), 1.0);  // interval coding wins massively
}

TEST(CompressedGraph, CompressesWebCorpusWellAndExactly) {
  WebGenConfig cfg;
  cfg.num_sources = 400;
  cfg.num_spam_sources = 10;
  cfg.seed = 4242;
  const WebCorpus corpus = generate_web_corpus(cfg);
  const CompressedGraph c(corpus.pages);
  EXPECT_EQ(c.decompress(), corpus.pages);
  // Web-like locality should beat the raw 32 bits/edge comfortably.
  EXPECT_LT(c.bits_per_edge(), 20.0);
  EXPECT_LT(c.memory_bytes(),
            corpus.pages.memory_bytes());
}

// Property: exact round-trip over random graph families.
struct RoundTripCase {
  const char* name;
  u64 seed;
  f64 p;
  NodeId n;
};

// Print the case by name: gtest's default byte dump would put the
// address of `name` into the listed test name, which then differs on
// every build.
void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << c.name; }

class CompressedRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(CompressedRoundTrip, ErdosRenyiRoundTrips) {
  const auto param = GetParam();
  Pcg32 rng(param.seed);
  const Graph g = erdos_renyi(param.n, param.p, rng);
  const CompressedGraph c(g);
  EXPECT_EQ(c.num_edges(), g.num_edges());
  EXPECT_EQ(c.decompress(), g);
}

INSTANTIATE_TEST_SUITE_P(
    Density, CompressedRoundTrip,
    ::testing::Values(RoundTripCase{"sparse", 1, 0.002, 500},
                      RoundTripCase{"medium", 2, 0.02, 300},
                      RoundTripCase{"dense", 3, 0.3, 120},
                      RoundTripCase{"verydense", 4, 0.8, 60},
                      RoundTripCase{"tiny", 5, 0.5, 5}),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      return info.param.name;
    });

TEST(CompressedGraph, BarabasiAlbertRoundTrips) {
  Pcg32 rng(77);
  const Graph g = barabasi_albert(800, 4, rng);
  EXPECT_EQ(CompressedGraph(g).decompress(), g);
}

// --- Reference (copy-list) compression.

/// Many consecutive nodes sharing one successor list: the best case
/// for reference compression.
Graph shared_list_graph(NodeId n) {
  GraphBuilder b(n);
  const std::vector<NodeId> list{3, 9, 27, 81, 120, 200, 301, 444};
  for (NodeId u = 500; u < n; ++u)
    for (const NodeId v : list) b.add_edge(u, v);
  return b.build();
}

TEST(ReferenceCompression, SharedListsRoundTripAndShrink) {
  const Graph g = shared_list_graph(1000);
  const CompressedGraph with_refs(g);
  CompressedGraph::Options no_refs;
  no_refs.window = 0;
  const CompressedGraph without(g, no_refs);
  EXPECT_EQ(with_refs.decompress(), g);
  EXPECT_EQ(without.decompress(), g);
  // Copying an identical list costs a few gammas; re-encoding 8
  // scattered residuals costs far more.
  EXPECT_LT(with_refs.bits_per_edge(), 0.5 * without.bits_per_edge());
  EXPECT_GT(with_refs.reference_rate(), 0.30);  // most of nodes 500+
  EXPECT_DOUBLE_EQ(without.reference_rate(), 0.0);
}

TEST(ReferenceCompression, PartialOverlapRoundTrips) {
  // Each node copies most of its predecessor's list but adds/drops a
  // couple of elements — the copy-run + extras path.
  GraphBuilder b(400);
  Pcg32 rng(123);
  std::vector<NodeId> base{10, 20, 30, 40, 50, 60, 70};
  for (NodeId u = 100; u < 400; ++u) {
    for (const NodeId v : base) b.add_edge(u, v);
    b.add_edge(u, rng.next_below(90));             // a private extra
    if (u % 3 == 0) b.add_edge(u, 95);             // occasional shared extra
  }
  const Graph g = b.build();
  EXPECT_EQ(CompressedGraph(g).decompress(), g);
}

TEST(ReferenceCompression, ChainCapIsRespected) {
  // A long run of identical lists wants an unbounded reference chain;
  // the cap must break it and the result must still round-trip.
  const Graph g = shared_list_graph(2000);
  CompressedGraph::Options opts;
  opts.max_ref_chain = 1;
  const CompressedGraph c(g, opts);
  EXPECT_EQ(c.decompress(), g);
  // The cap bounds chain DEPTH (decode cost), not the reference rate:
  // many nodes may share one chain-0 anchor inside the window. It must
  // still leave plenty of references in play.
  EXPECT_GT(c.reference_rate(), 0.30);
  EXPECT_LT(c.reference_rate(), 1.0);
}

TEST(ReferenceCompression, WindowZeroMatchesLegacyEncoding) {
  Pcg32 rng(321);
  const Graph g = erdos_renyi(200, 0.05, rng);
  CompressedGraph::Options no_refs;
  no_refs.window = 0;
  const CompressedGraph c(g, no_refs);
  EXPECT_EQ(c.decompress(), g);
  EXPECT_DOUBLE_EQ(c.reference_rate(), 0.0);
}

TEST(ReferenceCompression, NeverWorseThanNoReference) {
  // The encoder compares costs and falls back to r = 0, so enabling
  // the window can only shrink the payload.
  Pcg32 rng(99);
  for (const f64 p : {0.01, 0.1}) {
    const Graph g = erdos_renyi(300, p, rng);
    CompressedGraph::Options no_refs;
    no_refs.window = 0;
    EXPECT_LE(CompressedGraph(g).bits_per_edge(),
              CompressedGraph(g, no_refs).bits_per_edge() + 1e-12);
  }
}

TEST(Scanner, MatchesPerNodeDecode) {
  Pcg32 rng(555);
  const Graph g = erdos_renyi(300, 0.04, rng);
  const CompressedGraph c(g);
  CompressedGraph::Scanner scan(c);
  std::vector<NodeId> seq, rnd;
  NodeId count = 0;
  while (scan.next(seq)) {
    c.decode(scan.last(), rnd);
    ASSERT_EQ(seq, rnd) << "node " << scan.last();
    ++count;
  }
  EXPECT_EQ(count, g.num_nodes());
  // Exhausted scanner stays exhausted.
  EXPECT_FALSE(scan.next(seq));
}

TEST(Scanner, HandlesReferenceHeavyGraphs) {
  const Graph g = shared_list_graph(1500);
  const CompressedGraph c(g);
  EXPECT_GT(c.reference_rate(), 0.2);
  CompressedGraph::Scanner scan(c);
  std::vector<NodeId> nbrs;
  u64 edges = 0;
  while (scan.next(nbrs)) edges += nbrs.size();
  EXPECT_EQ(edges, g.num_edges());
}

TEST(Scanner, WorksWithWindowZero) {
  Pcg32 rng(556);
  const Graph g = erdos_renyi(100, 0.05, rng);
  CompressedGraph::Options opts;
  opts.window = 0;
  const CompressedGraph c(g, opts);
  CompressedGraph::Scanner scan(c);
  std::vector<NodeId> nbrs;
  NodeId count = 0;
  while (scan.next(nbrs)) ++count;
  EXPECT_EQ(count, g.num_nodes());
}

class ReferenceWindowSweep : public ::testing::TestWithParam<u32> {};

TEST_P(ReferenceWindowSweep, AllWindowsRoundTrip) {
  Pcg32 rng(456 + GetParam());
  const Graph g = erdos_renyi(250, 0.04, rng);
  CompressedGraph::Options opts;
  opts.window = GetParam();
  EXPECT_EQ(CompressedGraph(g, opts).decompress(), g);
}

INSTANTIATE_TEST_SUITE_P(Windows, ReferenceWindowSweep,
                         ::testing::Values(0u, 1u, 2u, 7u, 16u));

}  // namespace
}  // namespace srsr::graph
