// Tests for RankSnapshot and QueryEngine (serve/snapshot.hpp,
// serve/query.hpp): index semantics, host addressing, latency
// telemetry, and the acceptance contract that compare() reproduces the
// spam-demotion deltas of the figure harnesses bitwise (same graph,
// same kappa config).
#include "serve/query.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/srsr.hpp"
#include "graph/webgen.hpp"
#include "obs/metrics.hpp"
#include "rank/solvers.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"

namespace srsr::serve {
namespace {

RankSnapshot snapshot_of(std::vector<f64> scores,
                         std::vector<std::string> hosts = {}) {
  SnapshotMeta meta;
  meta.kappa_policy = "test";
  return RankSnapshot(std::move(scores), std::move(hosts), std::move(meta));
}

graph::WebCorpus small_corpus(u32 sources = 120, u32 spam = 6) {
  graph::WebGenConfig cfg;
  cfg.num_sources = sources;
  cfg.num_spam_sources = spam;
  cfg.seed = 77;
  return graph::generate_web_corpus(cfg);
}

core::SrsrConfig tight_config(
    core::ThrottleMode mode = core::ThrottleMode::kTeleportDiscard) {
  core::SrsrConfig cfg;
  cfg.convergence.tolerance = 1e-12;
  cfg.convergence.max_iterations = 5000;
  cfg.throttle_mode = mode;
  return cfg;
}

TEST(RankSnapshot, TopIndexOrdersByScoreThenId) {
  //                     s0   s1   s2    s3   (s1 == s3: tie -> id order)
  const auto snap = snapshot_of({0.1, 0.3, 0.25, 0.3, 0.05});
  const auto top = snap.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 3u);
  EXPECT_EQ(top[2], 2u);
  EXPECT_EQ(snap.rank_of(1), 1u);
  EXPECT_EQ(snap.rank_of(3), 2u);
  EXPECT_EQ(snap.rank_of(2), 3u);
  EXPECT_EQ(snap.rank_of(0), 4u);
  EXPECT_EQ(snap.rank_of(4), 5u);
  // k beyond n clamps.
  EXPECT_EQ(snap.top(99).size(), 5u);
}

TEST(RankSnapshot, SynthesizesHostNamesAndResolvesThem) {
  const auto snap = snapshot_of({0.5, 0.5});
  EXPECT_EQ(snap.host(1), "s1");
  ASSERT_TRUE(snap.id_of("s0").has_value());
  EXPECT_EQ(*snap.id_of("s0"), 0u);
  EXPECT_FALSE(snap.id_of("unknown.example").has_value());

  const auto named = snapshot_of({0.5, 0.5}, {"a.example", "b.example"});
  EXPECT_EQ(*named.id_of("b.example"), 1u);
}

TEST(RankSnapshot, ChecksumCoversScores) {
  const auto a = snapshot_of({0.25, 0.75});
  EXPECT_TRUE(a.verify_checksum());
  const auto b = snapshot_of({0.75, 0.25});
  EXPECT_NE(a.checksum(), b.checksum());
}

TEST(QueryEngine, ServesNulloptBeforeFirstPublish) {
  SnapshotStore store;
  const QueryEngine engine(store);
  EXPECT_FALSE(engine.score(0u).has_value());
  EXPECT_FALSE(engine.score(std::string("a")).has_value());
  EXPECT_FALSE(engine.rank_of(0u).has_value());
  EXPECT_FALSE(engine.compare(0u).has_value());
  EXPECT_TRUE(engine.top_k(5).empty());
}

TEST(QueryEngine, AnswersAllQueryShapes) {
  SnapshotStore store;
  store.publish(snapshot_of({0.1, 0.6, 0.3}, {"a", "b", "c"}));
  const QueryEngine engine(store);

  EXPECT_EQ(*engine.score(std::string("b")), 0.6);
  EXPECT_EQ(*engine.score(1u), 0.6);
  EXPECT_FALSE(engine.score(std::string("zz")).has_value());
  EXPECT_FALSE(engine.score(99u).has_value());

  const auto top = engine.top_k(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].host, "b");
  EXPECT_EQ(top[0].rank, 1u);
  EXPECT_EQ(top[1].host, "c");
  EXPECT_EQ(top[1].score, 0.3);

  EXPECT_EQ(*engine.rank_of(std::string("a")), 3u);
}

TEST(QueryEngine, CompareDiffsBaselineAgainstLive) {
  SnapshotStore store;
  const auto baseline = std::make_shared<const RankSnapshot>(
      snapshot_of({0.5, 0.3, 0.2}, {"a", "b", "c"}));
  store.publish(snapshot_of({0.1, 0.5, 0.4}, {"a", "b", "c"}));
  const QueryEngine engine(store, baseline);

  const auto c = engine.compare(std::string("a"));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->baseline_score, 0.5);
  EXPECT_EQ(c->score, 0.1);
  EXPECT_EQ(c->delta, 0.1 - 0.5);
  EXPECT_EQ(c->baseline_rank, 1u);
  EXPECT_EQ(c->rank, 3u);
  EXPECT_EQ(c->rank_change, 2);  // demoted two positions
  EXPECT_EQ(c->epoch, 1u);

  // No baseline -> nullopt, not a crash.
  const QueryEngine bare(store);
  EXPECT_FALSE(bare.compare(0u).has_value());
}

// Acceptance contract: serving a snapshot must not perturb sigma. The
// snapshot is bitwise-identical to a direct model.rank() call (the
// figure harnesses' path) — so compare() deltas reproduce the
// fig4-style demotion deltas exactly, not approximately — and agrees
// with a solve of the materialized T'' to 1e-12 in L1.
TEST(QueryEngine, CompareReproducesFigureDeltasBitwise) {
  const auto corpus = small_corpus();
  const core::SourceMap map = core::SourceMap::from_corpus(corpus);
  // Teleport-discard mode: throttled outflow leaves the system, so
  // every ring member genuinely loses mass (self-absorb would let a
  // member keep part of it). It is also `srsr_cli serve`'s default.
  const core::SpamResilientSourceRank model(corpus.pages, map,
                                            tight_config());

  // Throttle the labeled spam ring at kappa = 0.9 (a fig4c-style
  // config).
  std::vector<f64> kappa(model.num_sources(), 0.0);
  for (const NodeId s : corpus.spam_sources()) kappa[s] = 0.9;

  const auto direct_base = model.rank_baseline();
  const auto direct_throttled = model.rank(kappa);

  SnapshotStore store;
  const std::vector<f64> zeros(model.num_sources(), 0.0);
  SnapshotBuild base_build;
  base_build.policy = "baseline";
  const auto baseline = std::make_shared<const RankSnapshot>(
      make_snapshot(model, zeros, corpus.source_hosts, base_build));
  SnapshotBuild throttled_build;
  throttled_build.policy = "spam_ring_0.9";
  store.publish(make_snapshot(model, kappa, corpus.source_hosts,
                              throttled_build));
  const QueryEngine engine(store, baseline);

  for (NodeId s = 0; s < model.num_sources(); ++s) {
    const auto c = engine.compare(s);
    ASSERT_TRUE(c.has_value());
    // Bitwise: the snapshot path may not introduce even a ulp of
    // drift relative to the batch path the figures report.
    EXPECT_EQ(c->baseline_score, direct_base.scores[s]);
    EXPECT_EQ(c->score, direct_throttled.scores[s]);
    EXPECT_EQ(c->delta, direct_throttled.scores[s] - direct_base.scores[s]);
  }

  // Every fully-labeled spam source is demoted by the throttle.
  for (const NodeId s : corpus.spam_sources()) {
    const auto c = engine.compare(s);
    EXPECT_LT(c->delta, 0.0) << "spam source " << s << " was not demoted";
  }

  // The published sigma agrees with a solve of the explicit T''
  // matrix, the diagnostic reference, to 1e-12 in L1.
  rank::SolverConfig sc;
  sc.alpha = model.config().alpha;
  sc.convergence = model.config().convergence;
  const auto direct_mat =
      rank::power_solve(model.throttled_matrix(kappa), sc);
  const auto snap = store.current();
  ASSERT_EQ(snap->scores().size(), direct_mat.scores.size());
  f64 l1 = 0.0;
  for (NodeId s = 0; s < model.num_sources(); ++s)
    l1 += std::abs(snap->score(s) - direct_mat.scores[s]);
  EXPECT_LT(l1, 1e-12);
}

TEST(QueryEngine, RecordsLatencyHistogramsWhenMetricsEnabled) {
  SnapshotStore store;
  store.publish(snapshot_of({0.2, 0.8}));
  const QueryEngine engine(store);

  obs::set_metrics_enabled(true);
  (void)engine.score(0u);
  (void)engine.top_k(2);
  (void)engine.rank_of(1u);
  obs::set_metrics_enabled(false);

  auto& reg = obs::MetricsRegistry::instance();
  EXPECT_GE(reg.counter("srsr.serve.query.score.count").value(), 1u);
  EXPECT_GE(reg.histogram("srsr.serve.query.top_k.seconds").count(), 1u);
  EXPECT_GE(reg.histogram("srsr.serve.query.rank_of.seconds").count(), 1u);
  reg.reset_values();
}

}  // namespace
}  // namespace srsr::serve
