// Failure-injection and robustness tests: corrupted inputs must fail
// with srsr::Error (or, at worst, produce garbage data) — never crash,
// hang, or scribble memory. Also pins determinism across repeated runs
// of the OpenMP-parallel kernels.
#include <gtest/gtest.h>

#include <sstream>

#include "core/srsr.hpp"
#include "graph/io.hpp"
#include "graph/webgen.hpp"
#include "rank/pagerank.hpp"

namespace srsr {
namespace {

TEST(Robustness, EdgeListGarbageLinesAllThrow) {
  for (const char* bad : {"1", "a b", "1 2 3", "-1 2", "1 99999999999999999999",
                          "4294967295 0"}) {
    std::stringstream ss(bad);
    EXPECT_THROW(graph::read_edge_list(ss, 3), Error) << "input: " << bad;
  }
}

TEST(Robustness, ParallelKernelsAreRunToRunDeterministic) {
  // OpenMP kernels must produce IDENTICAL bits on repeated runs (the
  // per-element pull form has no cross-thread accumulation races; the
  // deficit reduction is a static-schedule sum whose order is fixed for
  // a fixed thread count).
  graph::WebGenConfig cfg;
  cfg.num_sources = 200;
  cfg.num_spam_sources = 10;
  cfg.seed = 72;
  const auto corpus = graph::generate_web_corpus(cfg);
  const auto a = rank::pagerank(corpus.pages);
  const auto b = rank::pagerank(corpus.pages);
  EXPECT_EQ(a.scores, b.scores);
  EXPECT_EQ(a.iterations, b.iterations);

  const core::SourceMap map = core::SourceMap::from_corpus(corpus);
  const core::SpamResilientSourceRank model(corpus.pages, map);
  EXPECT_EQ(model.rank_baseline().scores, model.rank_baseline().scores);
}

TEST(Robustness, ThrottleOnThrottledOutputIsStillValid) {
  // Feeding a discard-mode (substochastic) matrix back through the
  // transform must not blow up or create mass.
  graph::WebGenConfig cfg;
  cfg.num_sources = 80;
  cfg.seed = 73;
  const auto corpus = graph::generate_web_corpus(cfg);
  const core::SourceMap map = core::SourceMap::from_corpus(corpus);
  const core::SourceGraph sg(corpus.pages, map);
  const auto tprime = sg.consensus_matrix(true);
  std::vector<f64> kappa(sg.num_sources(), 0.4);
  const auto once = core::apply_throttle(tprime, kappa,
                                         core::ThrottleMode::kTeleportDiscard);
  const auto twice = core::apply_throttle(once, kappa,
                                          core::ThrottleMode::kTeleportDiscard);
  for (NodeId r = 0; r < twice.num_rows(); ++r)
    EXPECT_LE(twice.row_sum(r), once.row_sum(r) + 1e-12);
}

TEST(Robustness, RankingEmptyAndSingletonCorpora) {
  // Degenerate corpora must work end to end.
  graph::WebGenConfig cfg;
  cfg.num_sources = 1;
  cfg.num_spam_sources = 0;
  cfg.seed = 74;
  const auto corpus = graph::generate_web_corpus(cfg);
  const core::SourceMap map = core::SourceMap::from_corpus(corpus);
  const core::SpamResilientSourceRank model(corpus.pages, map);
  const auto r = model.rank_baseline();
  ASSERT_EQ(r.scores.size(), 1u);
  EXPECT_NEAR(r.scores[0], 1.0, 1e-12);
}

}  // namespace
}  // namespace srsr
