// Tests for RecomputePipeline (serve/recompute.hpp): background
// publishes, warm-start behaviour, graceful degradation on failed
// solves (old snapshot stays live), label-driven kappa derivation,
// the coalescing accounting invariant, and run-report surfacing. Runs
// under the "tsan" ctest label: the worker thread plus drain()/stats()
// callers exercise the pipeline's locking for real.
#include "serve/recompute.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/srsr.hpp"
#include "graph/webgen.hpp"
#include "obs/report.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"

namespace srsr::serve {
namespace {

graph::WebCorpus small_corpus(u32 sources = 100, u32 spam = 5) {
  graph::WebGenConfig cfg;
  cfg.num_sources = sources;
  cfg.num_spam_sources = spam;
  cfg.seed = 31;
  return graph::generate_web_corpus(cfg);
}

/// Model + store + corpus bundle so each test starts from one line.
struct Fixture {
  explicit Fixture(core::SrsrConfig cfg = tight_config())
      : corpus(small_corpus()),
        map(core::SourceMap::from_corpus(corpus)),
        model(corpus.pages, map, cfg) {}

  static core::SrsrConfig tight_config() {
    core::SrsrConfig cfg;
    cfg.convergence.tolerance = 1e-12;
    cfg.convergence.max_iterations = 5000;
    return cfg;
  }

  std::vector<f64> ring_kappa(f64 strength) const {
    std::vector<f64> kappa(model.num_sources(), 0.0);
    for (const NodeId s : corpus.spam_sources()) kappa[s] = strength;
    return kappa;
  }

  graph::WebCorpus corpus;
  core::SourceMap map;
  core::SpamResilientSourceRank model;
  SnapshotStore store;
};

TEST(RecomputePipeline, FirstPublishIsColdAndBitwiseReproducible) {
  Fixture fx;
  RecomputePipeline pipeline(fx.model, fx.corpus.source_hosts, fx.store);

  pipeline.submit(fx.ring_kappa(0.8), "ring_0.8");
  pipeline.drain();

  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.published, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.last_epoch, 1u);
  EXPECT_TRUE(stats.last_error.empty());

  const SnapshotPtr snap = fx.store.current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->meta().epoch, 1u);
  EXPECT_EQ(snap->meta().kappa_policy, "ring_0.8");
  EXPECT_FALSE(snap->meta().warm_started);  // no live sigma yet
  EXPECT_TRUE(snap->meta().converged);
  EXPECT_TRUE(snap->verify_checksum());

  // Cold pipeline solve == direct batch solve, bitwise.
  const auto direct = fx.model.rank(fx.ring_kappa(0.8));
  ASSERT_EQ(snap->scores().size(), direct.scores.size());
  for (NodeId s = 0; s < fx.model.num_sources(); ++s)
    EXPECT_EQ(snap->score(s), direct.scores[s]);
}

TEST(RecomputePipeline, WarmStartReachesSameFixedPointFaster) {
  Fixture fx;
  RecomputePipeline pipeline(fx.model, fx.corpus.source_hosts, fx.store);

  pipeline.submit(fx.ring_kappa(0.8));
  pipeline.drain();
  const u32 cold_iterations = fx.store.current()->meta().iterations;

  // Re-solving the same policy warm-started from its own fixed point
  // must converge almost immediately, to the same distribution.
  pipeline.submit(fx.ring_kappa(0.8));
  pipeline.drain();
  const SnapshotPtr warm = fx.store.current();
  EXPECT_EQ(warm->meta().epoch, 2u);
  EXPECT_TRUE(warm->meta().warm_started);
  EXPECT_TRUE(warm->meta().converged);
  EXPECT_LT(warm->meta().iterations, cold_iterations);

  const auto direct = fx.model.rank(fx.ring_kappa(0.8));
  for (NodeId s = 0; s < fx.model.num_sources(); ++s)
    EXPECT_NEAR(warm->score(s), direct.scores[s], 1e-9);
}

TEST(RecomputePipeline, FailedSolveKeepsOldSnapshotLive) {
  Fixture fx;
  RecomputePipeline pipeline(fx.model, fx.corpus.source_hosts, fx.store);

  pipeline.submit(fx.ring_kappa(0.8));
  pipeline.drain();
  const SnapshotPtr before = fx.store.current();
  const u64 checksum = before->checksum();

  // kappa = 2.0 violates the [0, 1] contract: validate_kappa throws
  // inside the worker, which must count the failure and publish nothing.
  pipeline.submit(fx.ring_kappa(2.0), "broken");
  pipeline.drain();

  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.published, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_FALSE(stats.last_error.empty());
  EXPECT_EQ(stats.last_epoch, 1u);

  const SnapshotPtr after = fx.store.current();
  EXPECT_EQ(after->meta().epoch, 1u);
  EXPECT_EQ(after->checksum(), checksum);
  EXPECT_EQ(after.get(), before.get());  // the very same object

  // A later good update recovers and clears last_error.
  pipeline.submit(fx.ring_kappa(0.5));
  pipeline.drain();
  EXPECT_EQ(fx.store.current()->meta().epoch, 2u);
  EXPECT_TRUE(pipeline.stats().last_error.empty());
}

TEST(RecomputePipeline, NonConvergenceIsNeverPublished) {
  core::SrsrConfig starved;
  starved.convergence.tolerance = 1e-15;
  starved.convergence.max_iterations = 1;
  Fixture fx(starved);

  RecomputePipeline pipeline(fx.model, fx.corpus.source_hosts, fx.store);
  pipeline.submit(fx.ring_kappa(0.5));
  pipeline.drain();
  EXPECT_EQ(pipeline.stats().failed, 1u);
  EXPECT_EQ(pipeline.stats().published, 0u);
  EXPECT_NE(pipeline.stats().last_error.find("converge"), std::string::npos);
  EXPECT_EQ(fx.store.current(), nullptr);  // nothing ever published
}

TEST(RecomputePipeline, SpamLabelsDeriveAndPublishKappaPolicy) {
  Fixture fx;
  RecomputePipeline pipeline(fx.model, fx.corpus.source_hosts, fx.store);

  pipeline.submit_spam_labels(fx.corpus.spam_sources(), 10);
  pipeline.drain();

  const SnapshotPtr snap = fx.store.current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->meta().kappa_policy, "top_10_proximity");
  // kappa_top_k fully throttles top_k sources -> mass == top_k.
  EXPECT_EQ(snap->meta().kappa_mass, 10.0);
  EXPECT_TRUE(snap->meta().converged);
}

TEST(RecomputePipeline, AccountingInvariantHoldsUnderCoalescing) {
  Fixture fx;
  RecomputePipeline pipeline(fx.model, fx.corpus.source_hosts, fx.store);

  // Flood the queue faster than solves complete: some updates coalesce
  // away (which ones depends on scheduling), but every submitted update
  // is accounted for exactly once.
  constexpr u64 kUpdates = 24;
  for (u64 i = 0; i < kUpdates; ++i)
    pipeline.submit(fx.ring_kappa(0.5 + 0.02 * static_cast<f64>(i)));
  pipeline.drain();

  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.submitted, kUpdates);
  EXPECT_EQ(stats.published + stats.failed + stats.coalesced, kUpdates);
  EXPECT_GE(stats.published, 1u);
  EXPECT_EQ(stats.failed, 0u);
  // The newest update always survives coalescing, so the live snapshot
  // is the last-submitted policy's fixed point.
  const auto direct = fx.model.rank(
      fx.ring_kappa(0.5 + 0.02 * static_cast<f64>(kUpdates - 1)));
  const SnapshotPtr snap = fx.store.current();
  for (NodeId s = 0; s < fx.model.num_sources(); ++s)
    EXPECT_NEAR(snap->score(s), direct.scores[s], 1e-9);
}

TEST(RecomputePipeline, ReportIntoSurfacesOutcome) {
  Fixture fx;
  RecomputePipeline pipeline(fx.model, fx.corpus.source_hosts, fx.store);
  pipeline.submit(fx.ring_kappa(0.8));
  pipeline.drain();
  pipeline.submit(fx.ring_kappa(2.0));
  pipeline.drain();

  obs::RunReport report("serve_test");
  pipeline.report_into(report);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"serve.published\":1"), std::string::npos);
  EXPECT_NE(json.find("\"serve.failed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"serve.coalesced\":0"), std::string::npos);
  EXPECT_NE(json.find("\"serve.last_epoch\":1"), std::string::npos);
  EXPECT_NE(json.find("serve.last_error"), std::string::npos);
}

TEST(RecomputePipeline, StopIsIdempotentAndDropsQueue) {
  Fixture fx;
  auto pipeline = std::make_unique<RecomputePipeline>(
      fx.model, fx.corpus.source_hosts, fx.store);
  pipeline->submit(fx.ring_kappa(0.5));
  pipeline->stop();
  pipeline->stop();  // second stop is a no-op, not a crash
  // Submits after stop are refused, not queued.
  pipeline->submit(fx.ring_kappa(0.6));
  const auto stats = pipeline->stats();
  EXPECT_EQ(stats.published + stats.failed + stats.coalesced,
            stats.submitted);
  pipeline.reset();  // destructor after explicit stop is safe too
}

}  // namespace
}  // namespace srsr::serve
