// Tests for RecomputePipeline over a static model (serve/recompute.hpp):
// background publishes through the owned IncrementalRanker, held to
// push's n*epsilon/(1-alpha) bound against a 1e-14 reference, the warm
// no-op republish, graceful degradation on bad kappa (old snapshot
// stays live), label-driven kappa derivation, the four-term accounting
// invariant, and run-report surfacing. Runs
// under the "tsan" ctest label: the worker thread plus drain()/stats()
// callers exercise the pipeline's locking for real.
#include "serve/recompute.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/srsr.hpp"
#include "graph/webgen.hpp"
#include "obs/report.hpp"
#include "rank/solvers.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"
#include "stream/incremental.hpp"

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
  Fixture()
      : corpus(small_corpus()),
        map(core::SourceMap::from_corpus(corpus)),
        model(corpus.pages, map) {}

  std::vector<f64> ring_kappa(f64 strength) const {
    std::vector<f64> kappa(model.num_sources(), 0.0);
    for (const NodeId s : corpus.spam_sources()) kappa[s] = strength;
    return kappa;
  }

  /// sigma for `kappa` by a Jacobi solve to L1 1e-14 — tighter than
  /// the bound any publish claims.
  std::vector<f64> reference(std::span<const f64> kappa) const {
    rank::SolverConfig sc;
    sc.alpha = model.config().alpha;
    sc.convergence.norm = rank::Norm::kL1;
    sc.convergence.tolerance = 1e-14;
    sc.convergence.max_iterations = 100000;
    const rank::RankResult ref =
        rank::jacobi_solve(model.throttled_view(kappa), sc);
    EXPECT_TRUE(ref.converged);
    return ref.scores;
  }

  /// Push's certified bound n*epsilon/(1-alpha) at the ranker's epsilon.
  f64 push_bound() const {
    return model.num_sources() * stream::IncrementalConfig{}.epsilon /
           (1.0 - model.config().alpha);
  }

  /// L1 distance of the live sigma from reference(kappa).
  f64 live_error(std::span<const f64> kappa) const {
    const std::vector<f64> ref = reference(kappa);
    const SnapshotPtr live = store.current();
    EXPECT_NE(live, nullptr);
    EXPECT_EQ(live->scores().size(), ref.size());
    f64 l1 = 0.0;
    for (std::size_t s = 0; s < ref.size(); ++s)
      l1 += std::abs(live->scores()[s] - ref[s]);
    return l1;
  }

  graph::WebCorpus corpus;
  core::SourceMap map;
  core::SpamResilientSourceRank model;
  SnapshotStore store;
};

/// Total updates accounted for: the pipeline's four-term invariant.
u64 accounted(const RecomputePipeline::Stats& s) {
  return s.published + s.failed + s.coalesced + s.coalesced_batches;
}

TEST(RecomputePipeline, FirstPublishIsWithinPushBoundAndReproducible) {
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
  EXPECT_FALSE(stats.last_path.empty());

  const SnapshotPtr snap = fx.store.current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->meta().epoch, 1u);
  EXPECT_EQ(snap->meta().kappa_policy, "ring_0.8");
  EXPECT_EQ(snap->meta().solver, "push");
  EXPECT_EQ(snap->meta().iterations, stats.last_pushes);
  EXPECT_TRUE(snap->meta().converged);
  EXPECT_TRUE(snap->verify_checksum());
  EXPECT_LE(fx.live_error(fx.ring_kappa(0.8)), fx.push_bound());

  // Push is serial: a second pipeline over the same model publishes the
  // same sigma, bitwise.
  SnapshotStore again;
  RecomputePipeline twin(fx.model, fx.corpus.source_hosts, again);
  twin.submit(fx.ring_kappa(0.8), "ring_0.8");
  twin.drain();
  ASSERT_NE(again.current(), nullptr);
  for (NodeId s = 0; s < fx.model.num_sources(); ++s)
    EXPECT_EQ(again.current()->score(s), snap->score(s));
}

TEST(RecomputePipeline, WarmStartReachesSameFixedPointFaster) {
  Fixture fx;
  RecomputePipeline pipeline(fx.model, fx.corpus.source_hosts, fx.store);

  pipeline.submit(fx.ring_kappa(0.8));
  pipeline.drain();
  const SnapshotPtr first = fx.store.current();
  ASSERT_NE(first, nullptr);
  EXPECT_GT(first->meta().iterations, 0u);

  // Re-submitting the live kappa moves no plan row: the warm push state
  // is already under epsilon, so the republish costs 0 pushes and
  // leaves sigma bitwise as it was.
  pipeline.submit(fx.ring_kappa(0.8));
  pipeline.drain();
  const SnapshotPtr warm = fx.store.current();
  EXPECT_EQ(warm->meta().epoch, 2u);
  EXPECT_TRUE(warm->meta().warm_started);
  EXPECT_TRUE(warm->meta().converged);
  EXPECT_EQ(warm->meta().iterations, 0u);
  EXPECT_EQ(pipeline.stats().last_path, "delta");
  for (NodeId s = 0; s < fx.model.num_sources(); ++s)
    EXPECT_EQ(warm->score(s), first->score(s));
}

TEST(RecomputePipeline, FailedSolveKeepsOldSnapshotLive) {
  Fixture fx;
  RecomputePipeline pipeline(fx.model, fx.corpus.source_hosts, fx.store);

  pipeline.submit(fx.ring_kappa(0.8));
  pipeline.drain();
  const SnapshotPtr before = fx.store.current();
  ASSERT_NE(before, nullptr);
  const u64 checksum = before->checksum();

  // Each bad vector violates the kappa contract (entries finite and in
  // [0, 1], one per source): set_kappa throws inside the worker before
  // touching the push state, which must count exactly one failure and
  // publish nothing.
  const std::vector<std::vector<f64>> bad = {
      fx.ring_kappa(2.0),
      fx.ring_kappa(std::numeric_limits<f64>::quiet_NaN()),
      fx.ring_kappa(std::numeric_limits<f64>::infinity()),
      fx.ring_kappa(-0.5),
      std::vector<f64>(fx.model.num_sources() + 1, 0.5),
  };
  u64 failed = 0;
  for (const std::vector<f64>& kappa : bad) {
    pipeline.submit(kappa, "broken");
    pipeline.drain();
    ++failed;

    const auto stats = pipeline.stats();
    EXPECT_EQ(stats.published, 1u);
    EXPECT_EQ(stats.failed, failed);
    EXPECT_FALSE(stats.last_error.empty());
    EXPECT_EQ(stats.last_epoch, 1u);

    const SnapshotPtr after = fx.store.current();
    EXPECT_EQ(after->meta().epoch, 1u);
    EXPECT_EQ(after->checksum(), checksum);
    EXPECT_EQ(after.get(), before.get());  // the very same object
  }

  // A later good update recovers, within the bound, and clears
  // last_error.
  pipeline.submit(fx.ring_kappa(0.5));
  pipeline.drain();
  EXPECT_EQ(fx.store.current()->meta().epoch, 2u);
  EXPECT_TRUE(pipeline.stats().last_error.empty());
  EXPECT_LE(fx.live_error(fx.ring_kappa(0.5)), fx.push_bound());
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
  const std::vector<f64> kappa = core::kappa_top_k(
      core::spam_proximity(fx.model.source_graph().topology(),
                           fx.corpus.spam_sources())
          .scores,
      10);
  EXPECT_LE(fx.live_error(kappa), fx.push_bound());
}

TEST(RecomputePipeline, AccountingInvariantHoldsUnderCoalescing) {
  Fixture fx;
  RecomputePipeline pipeline(fx.model, fx.corpus.source_hosts, fx.store);

  // Flood the queue faster than solves complete: drained runs fold into
  // shared publishes (how many depends on scheduling), but every
  // submitted update is applied in order and accounted for exactly once.
  constexpr u64 kUpdates = 24;
  for (u64 i = 0; i < kUpdates; ++i)
    pipeline.submit(fx.ring_kappa(0.5 + 0.02 * static_cast<f64>(i)));
  pipeline.drain();

  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.submitted, kUpdates);
  EXPECT_EQ(accounted(stats), kUpdates);
  EXPECT_GE(stats.published, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.coalesced, 0u);  // only stop() drops updates
  // The newest update is applied last, so the live snapshot is the
  // last-submitted policy's fixed point.
  EXPECT_LE(fx.live_error(
                fx.ring_kappa(0.5 + 0.02 * static_cast<f64>(kUpdates - 1))),
            fx.push_bound());
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
  EXPECT_NE(json.find("serve.update.last_path"), std::string::npos);
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
  EXPECT_EQ(accounted(pipeline->stats()), pipeline->stats().submitted);
  pipeline.reset();  // destructor after explicit stop is safe too
}

}  // namespace
}  // namespace srsr::serve
