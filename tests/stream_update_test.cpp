// Tests for the stream ingest layer (stream/edge_stream.hpp) and the
// mutable row derivation (stream/dynamic_graph.hpp). The load-bearing
// property: after ANY sequence of applied batches, the dynamic row
// store is BITWISE identical to what the static pipeline —
// core::SourceGraph::consensus_matrix(true) — derives from the
// equivalent page graph, and its ThrottleRowStats match
// ThrottleRowStats::of on that matrix. Every downstream incremental
// guarantee stands on this parity.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/source_graph.hpp"
#include "core/source_map.hpp"
#include "core/throttle.hpp"
#include "graph/builder.hpp"
#include "graph/webgen.hpp"
#include "stream/dynamic_graph.hpp"
#include "stream/edge_stream.hpp"
#include "util/check.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace srsr::stream {
namespace {

// ---------------------------------------------------------------- //
// Shadow model: a plain page adjacency + page->source assignment the
// tests mutate in step with the stream, then rebuild statically.
// ---------------------------------------------------------------- //

struct Shadow {
  std::vector<std::vector<NodeId>> out;  // sorted distinct
  std::vector<NodeId> page_source;
  u32 num_sources = 0;

  static Shadow of(const graph::WebCorpus& corpus) {
    Shadow s;
    s.page_source = corpus.page_source;
    s.num_sources = corpus.num_sources();
    s.out.resize(corpus.num_pages());
    for (NodeId p = 0; p < corpus.num_pages(); ++p) {
      const auto nbrs = corpus.pages.out_neighbors(p);
      s.out[p].assign(nbrs.begin(), nbrs.end());
      std::sort(s.out[p].begin(), s.out[p].end());
      s.out[p].erase(std::unique(s.out[p].begin(), s.out[p].end()),
                     s.out[p].end());
    }
    return s;
  }

  void insert(NodeId u, NodeId v) {
    auto& row = out[u];
    const auto it = std::lower_bound(row.begin(), row.end(), v);
    if (it == row.end() || *it != v) row.insert(it, v);
  }

  void erase(NodeId u, NodeId v) {
    auto& row = out[u];
    const auto it = std::lower_bound(row.begin(), row.end(), v);
    if (it != row.end() && *it == v) row.erase(it);
  }

  void add_page(NodeId source) {
    out.emplace_back();
    page_source.push_back(source);
    num_sources = std::max(num_sources, static_cast<u32>(source) + 1);
  }

  /// Replays a committed batch, resolving kAddPage hosts through the
  /// dynamic graph's id assignment (applied in the same order).
  void mirror(const UpdateBatch& batch, const DynamicSourceGraph& graph) {
    for (const auto& m : batch.mutations) {
      switch (m.kind) {
        case MutationKind::kInsertLink: insert(m.u, m.v); break;
        case MutationKind::kEraseLink: erase(m.u, m.v); break;
        case MutationKind::kAddPage:
          add_page(*graph.source_id(m.host));
          break;
      }
    }
  }

  rank::StochasticMatrix static_consensus() const {
    graph::GraphBuilder builder(static_cast<NodeId>(out.size()));
    for (NodeId p = 0; p < out.size(); ++p)
      for (const NodeId q : out[p]) builder.add_edge(p, q);
    const auto pages = builder.build();
    const core::SourceMap map(page_source);
    return core::SourceGraph(pages, map)
        .consensus_matrix(/*with_self_edges=*/true);
  }
};

void expect_bitwise_parity(const DynamicSourceGraph& graph,
                           const Shadow& shadow, const std::string& where) {
  const auto dynamic = graph.materialize();
  const auto statics = shadow.static_consensus();
  ASSERT_EQ(dynamic.num_rows(), statics.num_rows()) << where;
  ASSERT_EQ(dynamic.num_entries(), statics.num_entries()) << where;
  EXPECT_EQ(graph.row_entries(), statics.num_entries()) << where;
  for (NodeId r = 0; r < dynamic.num_rows(); ++r) {
    const auto dc = dynamic.row_cols(r);
    const auto sc = statics.row_cols(r);
    ASSERT_EQ(dc.size(), sc.size()) << where << " row " << r;
    for (std::size_t i = 0; i < dc.size(); ++i) {
      EXPECT_EQ(dc[i], sc[i]) << where << " row " << r;
      // Bitwise, not approximate: both derivations must accumulate in
      // the same order.
      EXPECT_EQ(dynamic.row_weights(r)[i], statics.row_weights(r)[i])
          << where << " row " << r << " col " << dc[i];
    }
  }
  const auto expected = core::ThrottleRowStats::of(statics);
  const auto& actual = graph.row_stats();
  for (NodeId r = 0; r < dynamic.num_rows(); ++r) {
    EXPECT_EQ(actual.self[r], expected.self[r]) << where << " row " << r;
    EXPECT_EQ(actual.off[r], expected.off[r]) << where << " row " << r;
    EXPECT_EQ(actual.empty[r], expected.empty[r]) << where << " row " << r;
  }
}

graph::WebCorpus small_corpus(u32 sources = 40, u64 seed = 11) {
  graph::WebGenConfig cfg;
  cfg.num_sources = sources;
  cfg.num_spam_sources = 2;
  cfg.seed = seed;
  return graph::generate_web_corpus(cfg);
}

// ---------------------------------------------------------------- //
// EdgeStream staging semantics
// ---------------------------------------------------------------- //

TEST(EdgeStream, CoalescesLinkOpsLastOpWins) {
  EdgeStream stream(10);
  stream.insert_link(0, 1);
  stream.erase_link(0, 1);
  stream.insert_link(0, 2);
  stream.insert_link(0, 2);  // idempotent re-stage, same slot
  EXPECT_EQ(stream.pending(), 2u);
  const auto batch = stream.commit();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.mutations[0].kind, MutationKind::kEraseLink);
  EXPECT_EQ(batch.mutations[0].u, 0u);
  EXPECT_EQ(batch.mutations[0].v, 1u);
  EXPECT_EQ(batch.mutations[1].kind, MutationKind::kInsertLink);
  EXPECT_EQ(batch.mutations[1].v, 2u);
}

TEST(EdgeStream, ProvisionalPageIdsExtendTheIdSpace) {
  EdgeStream stream(10);
  EXPECT_EQ(stream.add_page("a.example"), 10u);
  EXPECT_EQ(stream.add_page("b.example"), 11u);
  EXPECT_EQ(stream.num_pages(), 12u);
  // Links may reference pages staged earlier in the same batch.
  stream.insert_link(10, 11);
  stream.insert_link(11, 3);
  const auto batch = stream.commit();
  EXPECT_EQ(batch.size(), 4u);
  // The committed pages are now part of the base id space.
  EXPECT_EQ(stream.num_pages(), 12u);
  EXPECT_EQ(stream.add_page("c.example"), 12u);
}

TEST(EdgeStream, RejectsLinksOutsideTheIdSpace) {
  EdgeStream stream(10);
  EXPECT_THROW(stream.insert_link(10, 0), Error);
  EXPECT_THROW(stream.erase_link(0, 99), Error);
  EXPECT_THROW(stream.add_page(""), Error);
  EXPECT_EQ(stream.pending(), 0u);
}

TEST(EdgeStream, SequenceNumbersAreMonotone) {
  EdgeStream stream(4);
  stream.insert_link(0, 1);
  const auto first = stream.commit();
  const auto empty = stream.commit();
  stream.insert_link(1, 2);
  const auto third = stream.commit();
  EXPECT_GT(first.sequence, 0u);
  EXPECT_LT(first.sequence, empty.sequence);
  EXPECT_LT(empty.sequence, third.sequence);
  EXPECT_TRUE(empty.empty());
}

// ---------------------------------------------------------------- //
// DynamicSourceGraph row derivation parity
// ---------------------------------------------------------------- //

TEST(DynamicSourceGraph, SeedStateMatchesStaticDerivation) {
  const auto corpus = small_corpus();
  const core::SourceMap map(corpus.page_source);
  const DynamicSourceGraph graph(corpus.pages, map, corpus.source_hosts);
  const auto shadow = Shadow::of(corpus);
  expect_bitwise_parity(graph, shadow, "seed");
  EXPECT_EQ(graph.num_pages(), corpus.num_pages());
  EXPECT_EQ(graph.num_sources(), corpus.num_sources());
  EXPECT_EQ(graph.source_of_page(0), corpus.page_source[0]);
  EXPECT_EQ(*graph.source_id(corpus.source_hosts[3]), 3u);
  EXPECT_FALSE(graph.source_id("nowhere.example").has_value());
}

TEST(DynamicSourceGraph, RandomizedBatchesKeepBitwiseParity) {
  const auto corpus = small_corpus(30, 7);
  const core::SourceMap map(corpus.page_source);
  DynamicSourceGraph graph(corpus.pages, map, corpus.source_hosts);
  auto shadow = Shadow::of(corpus);
  EdgeStream stream(graph.num_pages());
  Pcg32 rng(99);

  for (u32 round = 0; round < 25; ++round) {
    const u32 ops = 1 + rng.next_below(12);
    for (u32 i = 0; i < ops; ++i) {
      const NodeId u = rng.next_below(stream.num_pages());
      const NodeId v = rng.next_below(stream.num_pages());
      if (rng.next_below(3) == 0)
        stream.erase_link(u, v);
      else
        stream.insert_link(u, v);
    }
    if (round % 5 == 4)
      stream.add_page(corpus.source_hosts[rng.next_below(
          corpus.num_sources())]);
    const auto batch = stream.commit();
    graph.apply(batch);
    shadow.mirror(batch, graph);
    expect_bitwise_parity(graph, shadow, "round " + std::to_string(round));
  }
}

TEST(DynamicSourceGraph, OutDegreeDroppingToZeroBecomesPureSelfLoop) {
  const auto corpus = small_corpus(20, 3);
  const core::SourceMap map(corpus.page_source);
  DynamicSourceGraph graph(corpus.pages, map, corpus.source_hosts);
  auto shadow = Shadow::of(corpus);
  EdgeStream stream(graph.num_pages());

  // Strip EVERY out-link of source 5's pages: the augmented row must
  // collapse to the pure self-loop {(5, 1.0)}.
  for (NodeId p = 0; p < corpus.num_pages(); ++p) {
    if (corpus.page_source[p] != 5) continue;
    for (const NodeId q : corpus.pages.out_neighbors(p))
      stream.erase_link(p, q);
  }
  const auto batch = stream.commit();
  const auto result = graph.apply(batch);
  shadow.mirror(batch, graph);
  ASSERT_EQ(result.dirty.size(), 1u);
  EXPECT_EQ(result.dirty[0], 5u);
  ASSERT_EQ(graph.row_cols(5).size(), 1u);
  EXPECT_EQ(graph.row_cols(5)[0], 5u);
  EXPECT_EQ(graph.row_weights(5)[0], 1.0);
  expect_bitwise_parity(graph, shadow, "emptied source");
}

TEST(DynamicSourceGraph, ApplyReportsPreEditRowsAndNoops) {
  const auto corpus = small_corpus(20, 5);
  const core::SourceMap map(corpus.page_source);
  DynamicSourceGraph graph(corpus.pages, map, corpus.source_hosts);

  const NodeId page = corpus.source_first_page[4];
  const std::vector<NodeId> before_cols(graph.row_cols(4).begin(),
                                        graph.row_cols(4).end());
  const std::vector<f64> before_weights(graph.row_weights(4).begin(),
                                        graph.row_weights(4).end());

  EdgeStream stream(graph.num_pages());
  stream.insert_link(page, corpus.source_first_page[9]);
  stream.erase_link(corpus.source_first_page[10],
                    corpus.source_first_page[10]);  // absent: a no-op
  const auto result = graph.apply(stream.commit());

  EXPECT_EQ(result.applied, 1u);
  EXPECT_GE(result.noops, 1u);
  ASSERT_EQ(result.dirty.size(), 1u);
  EXPECT_EQ(result.dirty[0], 4u);
  const auto old_cols = result.old_row_cols(0);
  const auto old_weights = result.old_row_weights(0);
  EXPECT_EQ(std::vector<NodeId>(old_cols.begin(), old_cols.end()),
            before_cols);
  EXPECT_EQ(std::vector<f64>(old_weights.begin(), old_weights.end()),
            before_weights);
}

TEST(DynamicSourceGraph, AddPageGrowsSourcesAndKeepsParity) {
  const auto corpus = small_corpus(15, 21);
  const core::SourceMap map(corpus.page_source);
  DynamicSourceGraph graph(corpus.pages, map, corpus.source_hosts);
  auto shadow = Shadow::of(corpus);
  EdgeStream stream(graph.num_pages());

  // A brand-new host: its source is appended as a pure self-loop even
  // before any of its pages link out.
  const NodeId p1 = stream.add_page("fresh.example");
  const auto grow = stream.commit();
  const auto grown = graph.apply(grow);
  shadow.mirror(grow, graph);
  EXPECT_EQ(grown.new_sources, 1u);
  EXPECT_EQ(grown.dirty.size(), 0u);  // link-less page dirties nothing
  const NodeId fresh = *graph.source_id("fresh.example");
  EXPECT_EQ(fresh, corpus.num_sources());
  EXPECT_EQ(graph.source_of_page(p1), fresh);
  expect_bitwise_parity(graph, shadow, "grown");

  // Linking from the new page dirties the NEW row; a second page of the
  // same host reuses the source id.
  const NodeId p2 = stream.add_page("fresh.example");
  stream.insert_link(p1, 0);
  stream.insert_link(p2, corpus.source_first_page[2]);
  const auto link = stream.commit();
  const auto linked = graph.apply(link);
  shadow.mirror(link, graph);
  EXPECT_EQ(linked.new_sources, 0u);
  ASSERT_EQ(linked.dirty.size(), 1u);
  EXPECT_EQ(linked.dirty[0], fresh);
  expect_bitwise_parity(graph, shadow, "linked growth");
}

void expect_topology_parity(const DynamicSourceGraph& graph,
                            const Shadow& shadow, const std::string& where) {
  graph::GraphBuilder builder(static_cast<NodeId>(shadow.out.size()));
  for (NodeId p = 0; p < shadow.out.size(); ++p)
    for (const NodeId q : shadow.out[p]) builder.add_edge(p, q);
  const auto pages = builder.build();
  const core::SourceMap map(shadow.page_source);
  const core::SourceGraph sg(pages, map);
  EXPECT_EQ(graph.topology(), sg.topology()) << where;
}

TEST(DynamicSourceGraph, TopologyMatchesStaticSourceGraph) {
  // The topology is read off the row store, where a link-less source and
  // a source linking only to its own host share the row {s: 1.0}: only
  // the second has the natural self edge s -> s.
  const auto corpus = small_corpus(25, 13);
  const core::SourceMap map(corpus.page_source);
  DynamicSourceGraph graph(corpus.pages, map, corpus.source_hosts);
  auto shadow = Shadow::of(corpus);
  EdgeStream stream(graph.num_pages());
  expect_topology_parity(graph, shadow, "seed");

  const auto pages_of = [&](NodeId s) {
    std::vector<NodeId> out;
    for (NodeId p = 0; p < shadow.out.size(); ++p)
      if (shadow.page_source[p] == s) out.push_back(p);
    return out;
  };
  const auto strip = [&](NodeId s) {
    for (const NodeId p : pages_of(s))
      for (const NodeId q : shadow.out[p]) stream.erase_link(p, q);
  };
  const auto commit = [&] {
    const auto batch = stream.commit();
    graph.apply(batch);
    shadow.mirror(batch, graph);
  };

  constexpr NodeId kSelfOnly = 2, kLinkless = 4, kLastLink = 6;
  stream.insert_link(corpus.source_first_page[1], corpus.source_first_page[7]);
  stream.insert_link(corpus.source_first_page[3], corpus.source_first_page[1]);
  // Self-only: every page's links replaced by one link home.
  strip(kSelfOnly);
  const NodeId home = corpus.source_first_page[kSelfOnly];
  stream.insert_link(home, home);
  strip(kLinkless);
  // All out-links but one go now; the last goes in the next batch.
  strip(kLastLink);
  const NodeId last_from = corpus.source_first_page[kLastLink];
  stream.insert_link(last_from, corpus.source_first_page[9]);
  // A brand-new host linked in the batch that creates it.
  const NodeId fresh_page = stream.add_page("fresh.example");
  stream.insert_link(fresh_page, corpus.source_first_page[5]);
  commit();
  ASSERT_EQ(graph.row_cols(kSelfOnly).size(), 1u);
  ASSERT_EQ(graph.row_cols(kLinkless).size(), 1u);
  EXPECT_EQ(graph.row_weights(kSelfOnly)[0], 1.0);
  EXPECT_EQ(graph.row_weights(kLinkless)[0], 1.0);
  EXPECT_TRUE(graph.topology().has_edge(kSelfOnly, kSelfOnly));
  EXPECT_EQ(graph.topology().out_degree(kLinkless), 0u);
  const NodeId fresh = *graph.source_id("fresh.example");
  EXPECT_EQ(graph.topology().out_degree(fresh), 1u);
  expect_topology_parity(graph, shadow, "first batch");

  stream.erase_link(last_from, corpus.source_first_page[9]);
  commit();
  EXPECT_EQ(graph.topology().out_degree(kLastLink), 0u);
  expect_topology_parity(graph, shadow, "last link erased");
}

TEST(DynamicSourceGraph, RandomizedEditsCrossBothCompactionThresholds) {
  // Enough churn on a small corpus to fold the page overlay into a new
  // CSR base and compact the row arena, several times over: pages
  // emptied and re-linked, hosts and pages added past the CSR base, and
  // full parity with the static derivation after every batch.
  const auto corpus = small_corpus(60, 31);
  const core::SourceMap map(corpus.page_source);
  DynamicSourceGraph graph(corpus.pages, map, corpus.source_hosts);
  auto shadow = Shadow::of(corpus);
  EdgeStream stream(graph.num_pages());
  Pcg32 rng(2024);
  std::vector<NodeId> emptied;  // pages stripped last round, to re-link
  u32 new_hosts = 0;

  for (u32 round = 0; round < 60; ++round) {
    const auto any_page = [&] { return rng.next_below(stream.num_pages()); };
    for (const NodeId p : emptied)
      for (int i = 0; i < 3; ++i) stream.insert_link(p, any_page());
    emptied.clear();
    const u32 ops = 2 + rng.next_below(10);
    for (u32 i = 0; i < ops; ++i) {
      const NodeId u = any_page();
      const NodeId v = any_page();
      if (rng.next_below(4) == 0)
        stream.erase_link(u, v);
      else
        stream.insert_link(u, v);
    }
    if (round % 3 == 0) {
      const NodeId p = rng.next_below(static_cast<u32>(shadow.out.size()));
      for (const NodeId q : shadow.out[p]) stream.erase_link(p, q);
      emptied.push_back(p);
    }
    if (round % 4 == 1) {
      const std::string host =
          round % 8 == 1 ? "grown" + std::to_string(new_hosts++) + ".example"
                         : corpus.source_hosts[rng.next_below(
                               corpus.num_sources())];
      const NodeId fresh = stream.add_page(host);
      stream.insert_link(fresh, any_page());
      stream.insert_link(any_page(), fresh);
    }
    const auto batch = stream.commit();
    graph.apply(batch);
    shadow.mirror(batch, graph);
    const std::string where = "round " + std::to_string(round);
    expect_bitwise_parity(graph, shadow, where);
    expect_topology_parity(graph, shadow, where);
    ASSERT_EQ(graph.num_pages(), shadow.out.size()) << where;
    ASSERT_EQ(graph.num_sources(), shadow.num_sources) << where;
  }
  const auto storage = graph.storage();
  EXPECT_GE(storage.page_folds, 2u);
  EXPECT_GE(storage.arena_compactions, 2u);
  EXPECT_LE(storage.arena_entries, 2 * graph.row_entries());
}

TEST(DynamicSourceGraph, SeedsFromRawCsrGraph) {
  // A page graph taken straight from CSR arrays, not from GraphBuilder:
  // a dangling page, a self link, several links into one source and a
  // page linking to every page. The base is a copy of these arrays; it
  // needs no re-sort because graph::Graph rejects unsorted rows and
  // parallel edges (graph_test), so no Graph can carry them.
  const graph::Graph pages({0, 3, 3, 5, 7, 8, 14},
                           {1, 2, 3, 0, 4, 2, 3, 5, 0, 1, 2, 3, 4, 5});
  Shadow shadow;
  shadow.page_source = {0, 0, 1, 1, 2, 2};
  shadow.num_sources = 3;
  for (NodeId p = 0; p < pages.num_nodes(); ++p) {
    const auto nbrs = pages.out_neighbors(p);
    shadow.out.emplace_back(nbrs.begin(), nbrs.end());
  }
  const core::SourceMap map(shadow.page_source);
  DynamicSourceGraph graph(pages, map, {});
  EXPECT_EQ(graph.hosts()[2], "s2");
  expect_bitwise_parity(graph, shadow, "raw seed");
  expect_topology_parity(graph, shadow, "raw seed");

  EdgeStream stream(graph.num_pages());
  stream.insert_link(1, 5);
  stream.erase_link(5, 0);
  const auto batch = stream.commit();
  graph.apply(batch);
  shadow.mirror(batch, graph);
  expect_bitwise_parity(graph, shadow, "raw edited");
}

TEST(DynamicSourceGraph, RejectsDuplicateHostNames) {
  const auto corpus = small_corpus(10, 2);
  const core::SourceMap map(corpus.page_source);
  auto hosts = corpus.source_hosts;
  hosts[7] = hosts[2];
  try {
    const DynamicSourceGraph graph(corpus.pages, map, hosts);
    FAIL() << "duplicate host name accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("'" + hosts[2] + "'"),
              std::string::npos)
        << e.what();
  }
}

TEST(DynamicSourceGraph, RejectsOutOfRangeBatch) {
  const auto corpus = small_corpus(10, 2);
  const core::SourceMap map(corpus.page_source);
  DynamicSourceGraph graph(corpus.pages, map, corpus.source_hosts);
  UpdateBatch bad;
  bad.mutations.push_back(
      {MutationKind::kInsertLink, graph.num_pages() + 5, 0, ""});
  EXPECT_THROW(graph.apply(bad), Error);
}

}  // namespace
}  // namespace srsr::stream
