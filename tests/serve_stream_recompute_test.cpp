// Tests for RecomputePipeline's DYNAMIC mode (serve/recompute.hpp over
// stream/incremental.hpp): topology batches publish fresh epochs
// through the warm delta path, drained runs fold into one publish with
// coalesced-batch accounting, kappa/label updates interleave in order,
// failed updates keep the old epoch live without dropping the rest of
// their run, and concurrent readers never see a torn snapshot. Runs
// under the tsan + sanitize ctest labels: the worker thread against
// reader threads is the point.
#include "serve/recompute.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/source_map.hpp"
#include "graph/webgen.hpp"
#include "obs/report.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"
#include "stream/dynamic_graph.hpp"
#include "stream/edge_stream.hpp"
#include "stream/incremental.hpp"
#include "util/rng.hpp"

namespace srsr::serve {
namespace {

struct Fixture {
  explicit Fixture(u32 sources = 80)
      : corpus(make_corpus(sources)),
        map(corpus.page_source),
        graph(corpus.pages, map, corpus.source_hosts),
        ranker(graph, ranker_config()),
        stream(graph.num_pages()) {}

  static graph::WebCorpus make_corpus(u32 sources) {
    graph::WebGenConfig cfg;
    cfg.num_sources = sources;
    cfg.num_spam_sources = 4;
    cfg.seed = 47;
    return graph::generate_web_corpus(cfg);
  }

  static stream::IncrementalConfig ranker_config() {
    stream::IncrementalConfig cfg;
    cfg.epsilon = 1e-12;
    return cfg;
  }

  /// One committed single-link batch (distinct per call).
  stream::UpdateBatch link_batch(u32 i) {
    stream.insert_link(corpus.source_first_page[1 + (i % 20)],
                       corpus.source_first_page[40 + (i % 20)]);
    return stream.commit();
  }

  graph::WebCorpus corpus;
  core::SourceMap map;
  stream::DynamicSourceGraph graph;
  stream::IncrementalRanker ranker;
  stream::EdgeStream stream;
  SnapshotStore store;
};

TEST(DynamicRecompute, TopologyBatchPublishesThroughTheDeltaPath) {
  Fixture fx;
  RecomputePipeline pipeline(fx.ranker, fx.store);
  EXPECT_TRUE(pipeline.dynamic());

  pipeline.submit_update(fx.link_batch(0));
  pipeline.drain();

  const auto st = pipeline.stats();
  EXPECT_EQ(st.published, 1u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.last_path, "delta");
  EXPECT_GT(st.last_pushes, 0u);
  EXPECT_EQ(st.last_dirty_rows, 1u);
  EXPECT_EQ(st.mutations_applied, 1u);
  EXPECT_EQ(st.queue_depth, 0u);

  const auto snap = fx.store.current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->meta().epoch, st.last_epoch);
  EXPECT_EQ(snap->meta().solver, "push");
  EXPECT_TRUE(snap->meta().converged);
  EXPECT_TRUE(snap->meta().warm_started);
  EXPECT_TRUE(snap->verify_checksum());
  EXPECT_EQ(snap->num_sources(), fx.ranker.num_sources());
  EXPECT_EQ(snap->host_index(), fx.graph.hosts());
}

TEST(DynamicRecompute, DrainedRunsFoldIntoOnePublish) {
  Fixture fx;
  RecomputePipeline pipeline(fx.ranker, fx.store);
  constexpr u32 kBatches = 12;
  for (u32 i = 0; i < kBatches; ++i)
    pipeline.submit_update(fx.link_batch(i));
  pipeline.drain();

  const auto st = pipeline.stats();
  // Every drained run publishes exactly once and counts the rest of
  // the run as coalesced — regardless of how the worker sliced the
  // queue, the two must add back up to the submission count.
  EXPECT_EQ(st.published + st.coalesced_batches, kBatches);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.mutations_applied, kBatches);
  EXPECT_EQ(fx.store.current()->meta().epoch, st.last_epoch);
}

TEST(DynamicRecompute, KappaAndTopologyUpdatesApplyInOrder) {
  Fixture fx;
  RecomputePipeline pipeline(fx.ranker, fx.store);
  std::vector<f64> kappa(fx.ranker.num_sources(), 0.0);
  for (const NodeId s : fx.corpus.spam_sources()) kappa[s] = 0.8;

  pipeline.submit_update(fx.link_batch(0));
  pipeline.submit(kappa, "ring_test");
  pipeline.drain();

  const auto st = pipeline.stats();
  EXPECT_EQ(st.failed, 0u);
  const auto snap = fx.store.current();
  EXPECT_EQ(snap->meta().kappa_policy, "ring_test");
  EXPECT_NEAR(snap->meta().kappa_mass, 0.8 * 4, 1e-12);
  // The installed policy sticks on later topology publishes.
  pipeline.submit_update(fx.link_batch(1));
  pipeline.drain();
  EXPECT_EQ(fx.store.current()->meta().kappa_policy, "ring_test");
}

TEST(DynamicRecompute, LabelUpdateWalksTheCurrentTopology) {
  Fixture fx;
  RecomputePipeline pipeline(fx.ranker, fx.store);
  pipeline.submit_spam_labels(fx.corpus.spam_sources(), 8);
  pipeline.drain();
  const auto st = pipeline.stats();
  EXPECT_EQ(st.failed, 0u) << st.last_error;
  EXPECT_EQ(st.published, 1u);
  const auto snap = fx.store.current();
  EXPECT_EQ(snap->meta().kappa_policy, "top_8_proximity");
  EXPECT_GT(snap->meta().kappa_mass, 0.0);
}

TEST(DynamicRecompute, FailedBatchKeepsTheOldEpochLive) {
  Fixture fx;
  RecomputePipeline pipeline(fx.ranker, fx.store);
  pipeline.submit_update(fx.link_batch(0));
  pipeline.drain();
  const u64 good_epoch = pipeline.stats().last_epoch;
  const auto good = fx.store.current();

  stream::UpdateBatch bad;
  bad.mutations.push_back(
      {stream::MutationKind::kInsertLink, fx.graph.num_pages() + 7, 0, ""});
  pipeline.submit_update(std::move(bad));
  pipeline.drain();

  const auto st = pipeline.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_FALSE(st.last_error.empty());
  EXPECT_EQ(st.last_epoch, good_epoch);
  EXPECT_EQ(fx.store.current()->meta().epoch, good->meta().epoch);

  // The ranker self-resynced: the pipeline still publishes.
  pipeline.submit_update(fx.link_batch(1));
  pipeline.drain();
  EXPECT_GT(pipeline.stats().last_epoch, good_epoch);
  EXPECT_EQ(pipeline.stats().failed, 1u);
}

TEST(DynamicRecompute, FailedUpdateDoesNotDropLaterBatchesInItsRun) {
  Fixture fx;
  RecomputePipeline pipeline(fx.ranker, fx.store);
  // Read before any submit: from here on the worker owns the ranker.
  const u32 before = fx.ranker.num_sources();
  // A bulk batch first keeps the worker busy (it takes the cold full
  // path), so the two updates behind it drain as one run.
  for (u32 i = 0; i < 40; ++i)
    fx.stream.insert_link(fx.corpus.source_first_page[i],
                          fx.corpus.source_first_page[79 - i]);
  pipeline.submit_update(fx.stream.commit());
  // A kappa sized for the wrong id space fails on its own...
  pipeline.submit(std::vector<f64>(before + 3, 0.5), "broken");
  // ...and the growth batch committed behind it must still apply.
  const NodeId page = fx.stream.add_page("grown.example");
  fx.stream.insert_link(page, fx.corpus.source_first_page[0]);
  fx.stream.insert_link(fx.corpus.source_first_page[2], page);
  pipeline.submit_update(fx.stream.commit());
  pipeline.drain();

  const auto st = pipeline.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.published + st.failed + st.coalesced + st.coalesced_batches,
            st.submitted);
  const auto snap = fx.store.current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->num_sources(), before + 1);
  EXPECT_EQ(snap->hosts().back(), "grown.example");
  // The failed update installed no policy.
  EXPECT_EQ(snap->meta().kappa_policy, "uniform_zero");
}

TEST(DynamicRecompute, GrowthPublishesGrownSnapshots) {
  Fixture fx;
  RecomputePipeline pipeline(fx.ranker, fx.store);
  const u32 before = fx.ranker.num_sources();
  const NodeId page = fx.stream.add_page("grown.example");
  fx.stream.insert_link(page, fx.corpus.source_first_page[0]);
  fx.stream.insert_link(fx.corpus.source_first_page[2], page);
  pipeline.submit_update(fx.stream.commit());
  pipeline.drain();

  const auto snap = fx.store.current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->num_sources(), before + 1);
  EXPECT_EQ(snap->hosts().back(), "grown.example");
  EXPECT_EQ(pipeline.stats().failed, 0u);
}

TEST(DynamicRecompute, ReportIncludesDynamicCounters) {
  Fixture fx;
  RecomputePipeline pipeline(fx.ranker, fx.store);
  pipeline.submit_update(fx.link_batch(0));
  pipeline.drain();
  obs::RunReport report("test");
  pipeline.report_into(report);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("serve.update.last_path"), std::string::npos);
  EXPECT_NE(json.find("serve.update.mutations"), std::string::npos);
}

TEST(DynamicRecompute, ConcurrentReadersNeverSeeATornSnapshot) {
  Fixture fx;
  RecomputePipeline pipeline(fx.ranker, fx.store);
  pipeline.submit_update(fx.link_batch(0));
  pipeline.drain();

  std::atomic<bool> stop{false};
  std::atomic<u64> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = fx.store.current();
        ASSERT_TRUE(snap->verify_checksum());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (u32 i = 1; i <= 20; ++i) {
    pipeline.submit_update(fx.link_batch(i));
    if (i % 4 == 0) pipeline.drain();
  }
  pipeline.drain();
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(pipeline.stats().failed, 0u);
}

TEST(DynamicRecompute, PreGrowthReaderKeepsItsHostSet) {
  Fixture fx;
  RecomputePipeline pipeline(fx.ranker, fx.store);
  pipeline.submit_update(fx.link_batch(0));
  pipeline.drain();
  const SnapshotPtr old_epoch = fx.store.current();
  const NodeId n = old_epoch->num_sources();
  const std::string probe = fx.corpus.source_hosts[5];

  // A reader holds the pre-growth epoch while the writer grows the
  // host set under it.
  std::atomic<bool> stop{false};
  std::atomic<u64> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      reads.fetch_add(1, std::memory_order_relaxed);
      ASSERT_EQ(old_epoch->num_sources(), n);
      ASSERT_EQ(old_epoch->hosts().size(), n);
      ASSERT_EQ(old_epoch->id_of(probe), 5u);
      ASSERT_FALSE(old_epoch->id_of("grown-0.example").has_value());
    }
  });
  // The writer starts once the reader is reading.
  while (reads.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  for (u32 i = 0; i < 4; ++i) {
    const NodeId page =
        fx.stream.add_page("grown-" + std::to_string(i) + ".example");
    fx.stream.insert_link(page, fx.corpus.source_first_page[i]);
    fx.stream.insert_link(fx.corpus.source_first_page[i + 10], page);
    pipeline.submit_update(fx.stream.commit());
  }
  pipeline.drain();
  stop.store(true);
  reader.join();

  const SnapshotPtr grown = fx.store.current();
  EXPECT_EQ(grown->num_sources(), n + 4);
  EXPECT_EQ(grown->id_of("grown-0.example"), n);
  EXPECT_EQ(grown->id_of(probe), 5u);
  EXPECT_NE(grown->host_index(), old_epoch->host_index());
  EXPECT_EQ(old_epoch->hosts().size(), n);
  EXPECT_TRUE(old_epoch->verify_checksum());
}

TEST(DynamicRecompute, EpochsWithoutGrowthShareOneHostIndex) {
  Fixture fx;
  const graph::HostIndexPtr seeded = fx.graph.hosts();
  RecomputePipeline pipeline(fx.ranker, fx.store);
  pipeline.submit_update(fx.link_batch(0));
  pipeline.drain();
  const SnapshotPtr first = fx.store.current();
  std::vector<f64> kappa(fx.ranker.num_sources(), 0.0);
  kappa[3] = 0.5;
  pipeline.submit(kappa);
  pipeline.submit_update(fx.link_batch(1));
  pipeline.drain();
  const SnapshotPtr second = fx.store.current();
  ASSERT_NE(first, second);
  EXPECT_EQ(first->host_index(), seeded);
  EXPECT_EQ(second->host_index(), seeded);
  EXPECT_EQ(fx.graph.hosts(), seeded);
  EXPECT_EQ(fx.graph.storage().host_index_swaps, 0u);
}

TEST(DynamicRecompute, GrowthBatchReplacesTheHostIndexOnce) {
  Fixture fx;
  const graph::HostIndexPtr seeded = fx.graph.hosts();
  const NodeId n = seeded->size();
  RecomputePipeline pipeline(fx.ranker, fx.store);
  // Three new hosts, two pages each, in one batch.
  for (u32 h = 0; h < 3; ++h)
    for (u32 p = 0; p < 2; ++p) {
      const NodeId page =
          fx.stream.add_page("new-" + std::to_string(h) + ".example");
      fx.stream.insert_link(page, fx.corpus.source_first_page[h]);
    }
  pipeline.submit_update(fx.stream.commit());
  pipeline.drain();

  EXPECT_EQ(fx.graph.storage().host_index_swaps, 1u);
  const graph::HostIndexPtr grown = fx.graph.hosts();
  EXPECT_NE(grown, seeded);
  EXPECT_EQ(seeded->size(), n);  // the shared index was not mutated
  ASSERT_EQ(grown->size(), n + 3);
  for (u32 h = 0; h < 3; ++h)
    EXPECT_EQ(grown->id_of("new-" + std::to_string(h) + ".example"), n + h);
  EXPECT_EQ(fx.store.current()->host_index(), grown);
}

TEST(DynamicRecompute, PatchedRankOrderEqualsAFullSort) {
  Fixture fx;
  RecomputePipeline pipeline(fx.ranker, fx.store);
  Pcg32 rng(7, 11);
  const auto pages = [&] { return fx.stream.num_pages(); };
  for (u32 round = 0; round < 16; ++round) {
    // Random links, a kappa swap now and then, and every fourth round
    // two link-less hosts born in one batch: their scores tie exactly.
    for (u32 k = 0, links = 1 + rng.next_below(6); k < links; ++k)
      fx.stream.insert_link(rng.next_below(pages()), rng.next_below(pages()));
    if (round % 4 == 3)
      for (u32 h = 0; h < 2; ++h)
        fx.stream.add_page("tie-" + std::to_string(round) + "-" +
                           std::to_string(h) + ".example");
    pipeline.submit_update(fx.stream.commit());
    if (rng.next_bool(0.3)) {
      pipeline.drain();
      std::vector<f64> kappa(fx.ranker.num_sources(), 0.0);
      for (u32 k = 0; k < 6; ++k)
        kappa[rng.next_below(fx.ranker.num_sources())] = rng.next_real();
      pipeline.submit(std::move(kappa));
    }
    pipeline.drain();
    const SnapshotPtr live = fx.store.current();
    const NodeId n = live->num_sources();
    const RankSnapshot full(
        std::vector<f64>(live->scores().begin(), live->scores().end()),
        live->host_index(), live->meta());
    const auto got = live->top(n);
    const auto want = full.top(n);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "round " << round;
    for (NodeId s = 0; s < n; ++s)
      ASSERT_EQ(live->rank_of(s), full.rank_of(s)) << "round " << round;
  }
  EXPECT_EQ(pipeline.stats().failed, 0u);
}

TEST(DynamicRecompute, SubmitUpdateOnStaticPipelineIsRejected) {
  Fixture fx;
  core::SpamResilientSourceRank model(fx.corpus.pages, fx.map);
  SnapshotStore store;
  RecomputePipeline pipeline(model, fx.corpus.source_hosts, store);
  EXPECT_FALSE(pipeline.dynamic());
  stream::UpdateBatch batch;
  EXPECT_THROW(pipeline.submit_update(std::move(batch)), Error);
}

}  // namespace
}  // namespace srsr::serve
