// Tests for the per-iteration trace hook (obs/trace.hpp) as honored by
// the solvers in src/rank, plus the RankResult telemetry summary.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rank/pagerank.hpp"
#include "rank/push.hpp"
#include "rank/solvers.hpp"

namespace srsr::rank {
namespace {

/// The known 3-node graph used throughout: a cycle plus a chord.
graph::Graph three_nodes() {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(0, 2);
  return b.build();
}

/// L1 residuals of the power method on a completed chain contract by
/// alpha each step, so monotonicity holds exactly under kL1 (it does
/// NOT under kL2 — the default stays kL2; tracing tests pin kL1).
SolverConfig traced_config(obs::IterationTrace* trace) {
  SolverConfig cfg;
  cfg.convergence.norm = Norm::kL1;
  cfg.convergence.tolerance = 1e-10;
  cfg.convergence.max_iterations = 500;
  cfg.convergence.trace = trace;
  return cfg;
}

TEST(ObsTrace, FiresOncePerIteration) {
  obs::IterationTrace trace;
  const auto r = pagerank(three_nodes(), traced_config(&trace));
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(trace.size(), static_cast<std::size_t>(r.iterations));
  const auto& recs = trace.records();
  for (std::size_t i = 0; i < recs.size(); ++i)
    EXPECT_EQ(recs[i].iteration, static_cast<u32>(i + 1));
}

TEST(ObsTrace, ResidualIsMonotoneUnderL1) {
  obs::IterationTrace trace;
  const auto r = pagerank(three_nodes(), traced_config(&trace));
  ASSERT_TRUE(r.converged);
  const auto& recs = trace.records();
  ASSERT_GE(recs.size(), 2u);
  for (std::size_t i = 1; i < recs.size(); ++i)
    EXPECT_LE(recs[i].residual, recs[i - 1].residual + 1e-15);
}

TEST(ObsTrace, FinalRecordMatchesResult) {
  obs::IterationTrace trace;
  const auto r = pagerank(three_nodes(), traced_config(&trace));
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.records().back().residual, r.residual);
}

TEST(ObsTrace, SecondsAreNonDecreasing) {
  obs::IterationTrace trace;
  pagerank(three_nodes(), traced_config(&trace));
  const auto& recs = trace.records();
  for (std::size_t i = 1; i < recs.size(); ++i)
    EXPECT_GE(recs[i].seconds, recs[i - 1].seconds);
}

TEST(ObsTrace, CallbackStreamsEveryRecord) {
  obs::IterationTrace trace;
  u32 fired = 0;
  trace.set_callback([&](const obs::IterationRecord&) { ++fired; });
  const auto r = pagerank(three_nodes(), traced_config(&trace));
  EXPECT_EQ(fired, r.iterations);
}

TEST(ObsTrace, SummaryMatchesBufferedRecords) {
  obs::IterationTrace trace;
  const auto r = pagerank(three_nodes(), traced_config(&trace));
  const auto s = trace.summary();
  EXPECT_EQ(s.iterations, r.iterations);
  EXPECT_EQ(s.first_residual, trace.records().front().residual);
  EXPECT_EQ(s.last_residual, r.residual);
  // The solver fills the same summary into its result.
  EXPECT_EQ(r.trace.iterations, s.iterations);
  EXPECT_EQ(r.trace.first_residual, s.first_residual);
  EXPECT_EQ(r.trace.last_residual, s.last_residual);
  EXPECT_EQ(r.trace.decay_rate, s.decay_rate);
  // A damped power iteration decays roughly like alpha per step.
  EXPECT_GT(s.decay_rate, 0.0);
  EXPECT_LT(s.decay_rate, 1.0);
}

TEST(ObsTrace, MakeTraceSummaryEdgeCases) {
  EXPECT_EQ(obs::make_trace_summary(0, 0.0, 0.0).decay_rate, 0.0);
  EXPECT_EQ(obs::make_trace_summary(1, 0.5, 0.5).decay_rate, 0.0);
  EXPECT_EQ(obs::make_trace_summary(5, 0.0, 0.1).decay_rate, 0.0);
  const auto s = obs::make_trace_summary(3, 1.0, 0.25);
  EXPECT_NEAR(s.decay_rate, 0.5, 1e-12);  // sqrt(0.25)
}

TEST(ObsTrace, WeightedSolversHonorTheHook) {
  const auto m = StochasticMatrix::uniform_from_graph(three_nodes());
  SolverConfig sc;
  sc.convergence.tolerance = 1e-10;
  sc.convergence.max_iterations = 500;

  obs::IterationTrace power_trace;
  sc.convergence.trace = &power_trace;
  const auto power = power_solve(m, sc);
  EXPECT_EQ(power_trace.size(), static_cast<std::size_t>(power.iterations));
  EXPECT_EQ(power_trace.records().back().residual, power.residual);

  obs::IterationTrace jacobi_trace;
  sc.convergence.trace = &jacobi_trace;
  const auto jacobi = jacobi_solve(m, sc);
  EXPECT_EQ(jacobi_trace.size(), static_cast<std::size_t>(jacobi.iterations));
  EXPECT_EQ(jacobi_trace.records().back().residual, jacobi.residual);
}

TEST(ObsTrace, PushEmitsSweepEquivalents) {
  const auto m = StochasticMatrix::uniform_from_graph(three_nodes());
  obs::IterationTrace trace;
  PushConfig pc;
  pc.epsilon = 1e-10;
  pc.trace = &trace;
  const auto r = push_solve(m, pc);
  ASSERT_TRUE(r.converged);
  ASSERT_GE(trace.size(), 1u);  // at least the final record
  EXPECT_EQ(trace.records().back().residual, r.max_residual);
}

TEST(ObsTrace, SummaryFilledWithoutTrace) {
  SolverConfig cfg;
  cfg.convergence.tolerance = 1e-10;
  cfg.convergence.max_iterations = 500;
  ASSERT_EQ(cfg.convergence.trace, nullptr);
  const auto r = pagerank(three_nodes(), cfg);
  EXPECT_EQ(r.trace.iterations, r.iterations);
  EXPECT_EQ(r.trace.last_residual, r.residual);
  EXPECT_GT(r.trace.first_residual, 0.0);
  EXPECT_GT(r.trace.decay_rate, 0.0);
}

TEST(ObsTrace, IterationsPerSecondSanity) {
  const auto r = pagerank(three_nodes());
  if (r.seconds > 0.0) {
    EXPECT_NEAR(r.iterations_per_second(),
                static_cast<f64>(r.iterations) / r.seconds, 1e-9);
  } else {
    EXPECT_EQ(r.iterations_per_second(), 0.0);
  }
  RankResult zero;
  EXPECT_EQ(zero.iterations_per_second(), 0.0);
}

// Every solver on the stationary-iteration driver records the same
// srsr.rank.<name>.{solves,iterations,seconds} metrics and opens one
// rank.<name>.solve span. The frozen bench suite reads the pagerank
// names for the spam-proximity walk, so they are pinned here.
TEST(ObsTrace, EverySolverRecordsItsMetricsAndSpan) {
  const graph::Graph g = three_nodes();
  const auto m = StochasticMatrix::uniform_from_graph(g);
  const SolverConfig sc = traced_config(nullptr);
  struct Case {
    const char* name;
    std::function<RankResult()> solve;
  };
  const std::vector<Case> cases = {
      {"power", [&] { return power_solve(m, sc); }},
      {"jacobi", [&] { return jacobi_solve(m, sc); }},
      {"pagerank", [&] { return pagerank(g, sc); }},
  };

  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(true);
  auto& reg = obs::MetricsRegistry::instance();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string prefix = std::string("srsr.rank.") + c.name;
    auto& solves = reg.counter(prefix + ".solves");
    auto& iterations = reg.counter(prefix + ".iterations");
    auto& seconds = reg.histogram(prefix + ".seconds");
    const u64 solves0 = solves.value();
    const u64 iterations0 = iterations.value();
    const u64 seconds0 = seconds.count();
    obs::clear_spans();

    const RankResult r = c.solve();
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(solves.value() - solves0, 1u);
    EXPECT_EQ(iterations.value() - iterations0, r.iterations);
    EXPECT_EQ(seconds.count() - seconds0, 1u);
    const std::string span = std::string("rank.") + c.name + ".solve";
    u32 opened = 0;
    for (const obs::SpanRecord& rec : obs::collect_spans())
      opened += span == rec.name;
    EXPECT_EQ(opened, 1u);
  }
  obs::set_tracing_enabled(false);
  obs::clear_spans();
  obs::set_metrics_enabled(metrics_were_on);
}

}  // namespace
}  // namespace srsr::rank
