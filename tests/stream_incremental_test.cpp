// Tests for IncrementalRanker (stream/incremental.hpp). The core
// property: after ANY sequence of edge batches and kappa swaps, the
// warm incrementally-maintained sigma matches a cold full solve of the
// same system to 1e-10 in Linf — the invariant-carried (p, r) state
// never drifts, across batches, sign-flipping residuals, rows whose
// out-degree collapses to zero, source growth, and both throttle
// modes. At eps = 1e-13 on ~60 rows each solve's truncation is below
// n*eps/(1-alpha) ~ 4e-11, so the 1e-10 gate has no slack for real
// drift. Runs under the tsan + sanitize ctest labels.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/srsr.hpp"
#include "core/throttle.hpp"
#include "graph/webgen.hpp"
#include "rank/push.hpp"
#include "rank/solvers.hpp"
#include "stream/dynamic_graph.hpp"
#include "stream/edge_stream.hpp"
#include "stream/incremental.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace srsr::stream {
namespace {

constexpr f64 kEpsilon = 1e-13;
constexpr f64 kParity = 1e-10;

graph::WebCorpus small_corpus(u32 sources = 60, u64 seed = 17) {
  graph::WebGenConfig cfg;
  cfg.num_sources = sources;
  cfg.num_spam_sources = 3;
  cfg.seed = seed;
  return graph::generate_web_corpus(cfg);
}

IncrementalConfig tight_config(
    core::ThrottleMode mode = core::ThrottleMode::kTeleportDiscard) {
  IncrementalConfig cfg;
  cfg.epsilon = kEpsilon;
  cfg.mode = mode;
  return cfg;
}

/// Cold reference: full pipeline on the ranker's CURRENT graph state —
/// materialize, throttle, push from scratch at the same epsilon.
std::vector<f64> cold_sigma(const IncrementalRanker& ranker) {
  const auto throttled = core::apply_throttle(
      ranker.graph().materialize(), ranker.kappa(), ranker.config().mode);
  rank::PushConfig cfg;
  cfg.alpha = ranker.config().alpha;
  cfg.epsilon = kEpsilon;
  const auto result = rank::push_solve(throttled, cfg);
  EXPECT_TRUE(result.converged);
  return result.scores;
}

f64 linf(std::span<const f64> a, std::span<const f64> b) {
  EXPECT_EQ(a.size(), b.size());
  f64 worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

void expect_parity(const IncrementalRanker& ranker, const std::string& where) {
  const f64 diff = linf(ranker.sigma(), cold_sigma(ranker));
  EXPECT_LE(diff, kParity) << where;
}

/// Bundle: corpus + dynamic graph + ranker + stream.
struct Fixture {
  explicit Fixture(IncrementalConfig cfg = tight_config(), u32 sources = 60,
                   u64 seed = 17)
      : corpus(small_corpus(sources, seed)),
        map(corpus.page_source),
        graph(corpus.pages, map, corpus.source_hosts),
        ranker(graph, cfg),
        stream(graph.num_pages()) {}

  graph::WebCorpus corpus;
  core::SourceMap map;
  DynamicSourceGraph graph;
  IncrementalRanker ranker;
  EdgeStream stream;
};

TEST(IncrementalRanker, InitialSolveMatchesColdPipeline) {
  Fixture fx;
  EXPECT_EQ(fx.ranker.last_outcome().path, UpdatePath::kFull);
  EXPECT_TRUE(fx.ranker.last_outcome().converged);
  expect_parity(fx.ranker, "initial");
  // sigma is a probability vector.
  f64 sum = 0.0;
  for (const f64 v : fx.ranker.sigma()) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(IncrementalRanker, RandomizedBatchesStayOnParity) {
  for (const auto mode : {core::ThrottleMode::kTeleportDiscard,
                          core::ThrottleMode::kSelfAbsorb}) {
    Fixture fx(tight_config(mode));
    // A standing policy so throttling is actually exercised.
    std::vector<f64> kappa(fx.ranker.num_sources(), 0.0);
    for (const NodeId s : fx.corpus.spam_sources()) kappa[s] = 0.9;
    fx.ranker.set_kappa(kappa);
    expect_parity(fx.ranker, "policy installed");

    Pcg32 rng(5);
    for (u32 round = 0; round < 15; ++round) {
      const u32 ops = 1 + rng.next_below(10);
      for (u32 i = 0; i < ops; ++i) {
        const NodeId u = rng.next_below(fx.stream.num_pages());
        const NodeId v = rng.next_below(fx.stream.num_pages());
        if (rng.next_below(3) == 0)
          fx.stream.erase_link(u, v);
        else
          fx.stream.insert_link(u, v);
      }
      const auto outcome = fx.ranker.apply(fx.stream.commit());
      EXPECT_TRUE(outcome.converged);
      expect_parity(fx.ranker, "mode " + std::to_string(static_cast<int>(mode)) +
                                   " round " + std::to_string(round));
    }
  }
}

TEST(IncrementalRanker, SignFlippingEditsCancelCleanly) {
  // Insert a cross-host link, then remove it again in the next batch:
  // the second injection is the exact sign-flip of the first, and the
  // state must land back on the original fixed point.
  Fixture fx;
  const std::vector<f64> before = fx.ranker.sigma();
  const NodeId u = fx.corpus.source_first_page[2];
  const NodeId v = fx.corpus.source_first_page[40];

  fx.stream.insert_link(u, v);
  const auto ins = fx.ranker.apply(fx.stream.commit());
  EXPECT_EQ(ins.path, UpdatePath::kDelta);
  expect_parity(fx.ranker, "inserted");

  fx.stream.erase_link(u, v);
  const auto del = fx.ranker.apply(fx.stream.commit());
  EXPECT_EQ(del.path, UpdatePath::kDelta);
  expect_parity(fx.ranker, "erased");
  EXPECT_LE(linf(fx.ranker.sigma(), before), kParity);
}

TEST(IncrementalRanker, OutDegreeCollapseToZeroStaysOnParity) {
  Fixture fx;
  for (NodeId p = 0; p < fx.corpus.num_pages(); ++p) {
    if (fx.corpus.page_source[p] != 7) continue;
    for (const NodeId q : fx.corpus.pages.out_neighbors(p))
      fx.stream.erase_link(p, q);
  }
  const auto outcome = fx.ranker.apply(fx.stream.commit());
  EXPECT_TRUE(outcome.converged);
  EXPECT_EQ(outcome.dirty_rows, 1u);
  expect_parity(fx.ranker, "collapsed row");
}

TEST(IncrementalRanker, SourceGrowthStaysOnParity) {
  Fixture fx;
  // New host with pages linking into and out of the existing graph;
  // in-links into the new source come from existing (dirty) rows.
  const NodeId p1 = fx.stream.add_page("new-a.example");
  const NodeId p2 = fx.stream.add_page("new-b.example");
  fx.stream.insert_link(p1, fx.corpus.source_first_page[0]);
  fx.stream.insert_link(p1, p2);
  fx.stream.insert_link(fx.corpus.source_first_page[3], p1);
  const auto outcome = fx.ranker.apply(fx.stream.commit());
  EXPECT_EQ(outcome.new_sources, 2u);
  EXPECT_EQ(fx.ranker.num_sources(), fx.corpus.num_sources() + 2);
  EXPECT_TRUE(outcome.converged);
  expect_parity(fx.ranker, "grown");

  // Another batch on the grown graph keeps the invariant.
  fx.stream.insert_link(p2, fx.corpus.source_first_page[5]);
  fx.ranker.apply(fx.stream.commit());
  expect_parity(fx.ranker, "post-growth edit");
}

TEST(IncrementalRanker, LargeBatchTakesTheFullPath) {
  // A batch dirtying most rows injects more residual mass than the
  // full_mass_threshold — the ranker must choose the cold solve.
  Fixture fx;
  Pcg32 rng(23);
  for (NodeId p = 0; p < fx.corpus.num_pages(); p += 2)
    fx.stream.insert_link(p, rng.next_below(fx.corpus.num_pages()));
  const auto outcome = fx.ranker.apply(fx.stream.commit());
  EXPECT_EQ(outcome.path, UpdatePath::kFull);
  EXPECT_TRUE(outcome.converged);
  expect_parity(fx.ranker, "full path");
}

TEST(IncrementalRanker, PushCapTriggersColdFallback) {
  IncrementalConfig cfg = tight_config();
  cfg.max_delta_pushes = 1;  // guaranteed stall on any real delta
  Fixture fx(cfg);
  fx.stream.insert_link(fx.corpus.source_first_page[1],
                        fx.corpus.source_first_page[30]);
  const auto outcome = fx.ranker.apply(fx.stream.commit());
  EXPECT_EQ(outcome.path, UpdatePath::kFallback);
  EXPECT_TRUE(outcome.converged);
  expect_parity(fx.ranker, "fallback");

  // The fallback re-seeded clean state: further warm batches work.
  fx.stream.erase_link(fx.corpus.source_first_page[1],
                       fx.corpus.source_first_page[30]);
  EXPECT_TRUE(fx.ranker.apply(fx.stream.commit()).converged);
  expect_parity(fx.ranker, "post-fallback");
}

TEST(IncrementalRanker, KappaSwapsRideTheWarmPath) {
  Fixture fx;
  std::vector<f64> kappa(fx.ranker.num_sources(), 0.0);
  for (const NodeId s : fx.corpus.spam_sources()) kappa[s] = 1.0;
  const auto up = fx.ranker.set_kappa(kappa);
  EXPECT_EQ(up.path, UpdatePath::kDelta);
  EXPECT_TRUE(up.converged);
  expect_parity(fx.ranker, "kappa on");

  // Restarting at the solution does no work: unchanged kappa dirties
  // no row and pushes nothing, and the seed is just the standing
  // sub-epsilon residual carried between solves.
  const auto same = fx.ranker.set_kappa(kappa);
  EXPECT_EQ(same.dirty_rows, 0u);
  EXPECT_EQ(same.pushes, 0u);
  EXPECT_LT(same.seed_mass,
            static_cast<f64>(fx.ranker.num_sources()) * kEpsilon);

  // A kappa sized for another id space is rejected before any state
  // moves.
  EXPECT_THROW(fx.ranker.set_kappa(std::vector<f64>(kappa.size() - 1, 0.0)),
               Error);
  expect_parity(fx.ranker, "rejected kappa");

  // Back to zero: sign-flipped plan delta.
  std::vector<f64> off(fx.ranker.num_sources(), 0.0);
  EXPECT_TRUE(fx.ranker.set_kappa(off).converged);
  expect_parity(fx.ranker, "kappa off");
}

TEST(IncrementalRanker, InterleavedEditsAndPolicySwapsStayOnParity) {
  Fixture fx;
  Pcg32 rng(77);
  for (u32 round = 0; round < 8; ++round) {
    for (u32 i = 0; i < 4; ++i)
      fx.stream.insert_link(rng.next_below(fx.stream.num_pages()),
                            rng.next_below(fx.stream.num_pages()));
    fx.ranker.apply(fx.stream.commit());
    std::vector<f64> kappa(fx.ranker.num_sources(), 0.0);
    for (u32 i = 0; i < 5; ++i)
      kappa[rng.next_below(fx.ranker.num_sources())] =
          0.1 * static_cast<f64>(1 + rng.next_below(10));
    fx.ranker.set_kappa(kappa);
    expect_parity(fx.ranker, "interleaved round " + std::to_string(round));
  }
}

TEST(IncrementalRanker, MalformedBatchPoisonsThenSelfResyncs) {
  Fixture fx;
  UpdateBatch bad;
  bad.mutations.push_back({MutationKind::kInsertLink, 0, 1, ""});
  bad.mutations.push_back(
      {MutationKind::kInsertLink, fx.graph.num_pages() + 9, 0, ""});
  EXPECT_THROW(fx.ranker.apply(bad), Error);
  // The ranker re-solved cold against the partially-mutated graph:
  // (graph, sigma) are consistent and further batches work.
  expect_parity(fx.ranker, "after poison");
  fx.stream.insert_link(fx.corpus.source_first_page[2],
                        fx.corpus.source_first_page[8]);
  EXPECT_TRUE(fx.ranker.apply(fx.stream.commit()).converged);
  expect_parity(fx.ranker, "recovered");
}

TEST(IncrementalRanker, ChangedRowsCoverEveryMovedEstimate) {
  Fixture fx;
  // The constructor's cold solve changed every row.
  EXPECT_FALSE(fx.ranker.take_changed_rows().has_value());
  Pcg32 rng(23);
  for (u32 round = 0; round < 12; ++round) {
    const std::vector<f64> before = fx.ranker.raw_estimate();
    // Two delta batches before one take: the record is their union.
    for (u32 b = 0; b < 2; ++b) {
      fx.stream.insert_link(rng.next_below(fx.stream.num_pages()),
                            rng.next_below(fx.stream.num_pages()));
      if (round % 4 == 3 && b == 0) fx.stream.add_page("grown.example");
      ASSERT_EQ(fx.ranker.apply(fx.stream.commit()).path, UpdatePath::kDelta);
    }
    const auto changed = fx.ranker.take_changed_rows();
    ASSERT_TRUE(changed.has_value()) << "round " << round;
    std::vector<NodeId> rows = *changed;
    std::sort(rows.begin(), rows.end());
    EXPECT_TRUE(std::adjacent_find(rows.begin(), rows.end()) == rows.end());
    const std::vector<f64>& after = fx.ranker.raw_estimate();
    for (NodeId s = 0; s < after.size(); ++s) {
      const bool moved = s >= before.size() || after[s] != before[s];
      if (moved) {
        EXPECT_TRUE(std::binary_search(rows.begin(), rows.end(), s))
            << "round " << round << ", row " << s;
      }
    }
    // Taken: nothing changed since.
    EXPECT_TRUE(fx.ranker.take_changed_rows()->empty());
  }
  // A cold full solve changes every row.
  for (NodeId p = 0; p < fx.corpus.num_pages(); p += 2)
    fx.stream.insert_link(p, rng.next_below(fx.corpus.num_pages()));
  ASSERT_EQ(fx.ranker.apply(fx.stream.commit()).path, UpdatePath::kFull);
  EXPECT_FALSE(fx.ranker.take_changed_rows().has_value());
}

TEST(IncrementalRanker, RejectsOutOfOrderSequences) {
  Fixture fx;
  UpdateBatch b1;
  b1.sequence = 5;
  fx.ranker.apply(b1);
  UpdateBatch b2;
  b2.sequence = 5;  // not strictly increasing
  EXPECT_THROW(fx.ranker.apply(b2), Error);
}

TEST(IncrementalRanker, OutcomeAccountingIsCoherent) {
  Fixture fx;
  const u64 cold_pushes = fx.ranker.last_outcome().pushes;
  fx.stream.insert_link(fx.corpus.source_first_page[4],
                        fx.corpus.source_first_page[9]);
  fx.stream.insert_link(fx.corpus.source_first_page[4],
                        fx.corpus.source_first_page[9]);  // coalesces away
  fx.stream.erase_link(fx.corpus.source_first_page[6], 0);  // likely absent
  const auto outcome = fx.ranker.apply(fx.stream.commit());
  EXPECT_EQ(outcome.mutations + outcome.noops, 2u);
  EXPECT_GE(outcome.dirty_rows, 1u);
  EXPECT_GT(outcome.seed_mass, 0.0);
  EXPECT_GT(outcome.pushes, 0u);
  // The delta pushes only the injected defect, far less than the cold
  // initial solve pushed from the full teleport mass.
  EXPECT_LT(static_cast<f64>(outcome.pushes),
            0.8 * static_cast<f64>(cold_pushes))
      << outcome.pushes << " delta vs " << cold_pushes << " cold pushes";
  EXPECT_GT(outcome.touched, 0u);
  EXPECT_LT(outcome.max_residual, kEpsilon);
  EXPECT_GE(outcome.seconds, 0.0);
}

TEST(IncrementalRanker, StaticModelBindingHoldsThePushBound) {
  const graph::WebCorpus corpus = small_corpus();
  const core::SourceMap map(corpus.page_source);
  for (const auto mode : {core::ThrottleMode::kTeleportDiscard,
                          core::ThrottleMode::kSelfAbsorb}) {
    SCOPED_TRACE(static_cast<int>(mode));
    core::SrsrConfig sc;
    sc.alpha = 0.8;
    sc.throttle_mode = mode;
    const core::SpamResilientSourceRank model(corpus.pages, map, sc);
    IncrementalRanker ranker(model);
    // alpha and mode follow the model; epsilon keeps its default.
    EXPECT_EQ(ranker.config().alpha, 0.8);
    EXPECT_EQ(ranker.config().mode, mode);
    EXPECT_EQ(ranker.config().epsilon, IncrementalConfig{}.epsilon);
    EXPECT_EQ(ranker.last_outcome().path, UpdatePath::kFull);
    const f64 bound = model.num_sources() * ranker.config().epsilon /
                      (1.0 - ranker.config().alpha);

    std::vector<f64> kappa(model.num_sources(), 0.0);
    for (const NodeId s : corpus.spam_sources()) kappa[s] = 1.0;
    for (u32 step = 0; step < 3; ++step) {
      const UpdateOutcome outcome = ranker.set_kappa(kappa);
      EXPECT_TRUE(outcome.converged);
      EXPECT_GT(outcome.dirty_rows, 0u);
      rank::SolverConfig ref_cfg;
      ref_cfg.alpha = sc.alpha;
      ref_cfg.convergence.norm = rank::Norm::kL1;
      ref_cfg.convergence.tolerance = 1e-14;
      ref_cfg.convergence.max_iterations = 100000;
      const rank::RankResult ref =
          rank::jacobi_solve(model.throttled_view(kappa), ref_cfg);
      ASSERT_TRUE(ref.converged);
      const std::vector<f64> sigma = ranker.sigma();
      f64 l1 = 0.0;
      for (std::size_t i = 0; i < sigma.size(); ++i)
        l1 += std::abs(sigma[i] - ref.scores[i]);
      EXPECT_LE(l1, bound) << "step " << step;
      for (f64& k : kappa) k *= 0.5;
    }
  }
}

TEST(IncrementalRanker, StaticModelBindingRejectsTopologyBatches) {
  const graph::WebCorpus corpus = small_corpus();
  const core::SourceMap map(corpus.page_source);
  const core::SpamResilientSourceRank model(corpus.pages, map);
  IncrementalRanker ranker(model);
  const std::vector<f64> before = ranker.sigma();
  EXPECT_THROW(ranker.apply(UpdateBatch{}), Error);
  // The rejected batch touched nothing.
  EXPECT_EQ(ranker.sigma(), before);
  EXPECT_EQ(ranker.last_outcome().path, UpdatePath::kFull);
}

}  // namespace
}  // namespace srsr::stream
