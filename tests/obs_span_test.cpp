// Tests for the span tracer (obs/span.hpp): enable/disable gating,
// same-thread nesting through the thread-local cursor, explicit
// cross-thread context hand-off, ring wrap-around, and the end-to-end
// structural contract — a traced RecomputePipeline publish yields a
// serve.recompute span whose children are the push solve and the
// snapshot build. Runs
// under the "tsan" ctest label: spans record from the pipeline worker
// and reader threads concurrently.
#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/srsr.hpp"
#include "graph/webgen.hpp"
#include "serve/query.hpp"
#include "serve/recompute.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"
#include "util/parallel.hpp"

namespace srsr::obs {
namespace {

/// Every test owns the global tracing state: start clean, leave clean.
class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_tracing_enabled(true);
    clear_spans();
  }
  void TearDown() override {
    set_tracing_enabled(false);
    clear_spans();
  }
};

const SpanRecord* find_span(const std::vector<SpanRecord>& spans,
                            const std::string& name) {
  for (const auto& s : spans)
    if (name == s.name) return &s;
  return nullptr;
}

/// The first span named `name` whose parent is `parent`.
const SpanRecord* find_child(const std::vector<SpanRecord>& spans,
                             const std::string& name,
                             const SpanRecord& parent) {
  for (const auto& s : spans)
    if (name == s.name && s.parent_id == parent.span_id) return &s;
  return nullptr;
}

TEST_F(SpanTest, DisabledSpanRecordsNothing) {
  set_tracing_enabled(false);
  {
    Span outer("outer");
    EXPECT_FALSE(outer.active());
    EXPECT_FALSE(outer.context().valid());
    Span inner("inner");
    EXPECT_FALSE(inner.active());
  }
  EXPECT_TRUE(collect_spans().empty());
  EXPECT_FALSE(current_span_context().valid());
}

TEST_F(SpanTest, RootSpanStartsFreshTrace) {
  {
    Span root("root");
    EXPECT_TRUE(root.active());
    EXPECT_TRUE(root.context().valid());
    EXPECT_EQ(current_span_context().span_id, root.context().span_id);
  }
  EXPECT_FALSE(current_span_context().valid());

  const auto spans = collect_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(std::string(spans[0].name), "root");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_NE(spans[0].trace_id, 0u);
}

TEST_F(SpanTest, SameThreadSpansNest) {
  {
    Span outer("outer");
    Span mid("mid");
    { Span leaf("leaf"); }
    EXPECT_EQ(current_span_context().span_id, mid.context().span_id);
  }
  const auto spans = collect_spans();
  ASSERT_EQ(spans.size(), 3u);
  const auto* outer = find_span(spans, "outer");
  const auto* mid = find_span(spans, "mid");
  const auto* leaf = find_span(spans, "leaf");
  ASSERT_TRUE(outer && mid && leaf);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(mid->parent_id, outer->span_id);
  EXPECT_EQ(leaf->parent_id, mid->span_id);
  // One trace end to end.
  EXPECT_EQ(mid->trace_id, outer->trace_id);
  EXPECT_EQ(leaf->trace_id, outer->trace_id);
  // Durations nest: the leaf cannot outlast its ancestors.
  EXPECT_LE(leaf->duration_ns, outer->duration_ns);
}

TEST_F(SpanTest, ExplicitFinishIsIdempotentAndPopsCursor) {
  Span outer("outer");
  Span inner("inner");
  inner.finish();
  inner.finish();  // second finish: no double record
  EXPECT_EQ(current_span_context().span_id, outer.context().span_id);
  outer.finish();
  const auto spans = collect_spans();
  EXPECT_EQ(spans.size(), 2u);
}

TEST_F(SpanTest, CrossThreadHandOffLinksTraces) {
  SpanContext handed;
  {
    Span request("request");
    handed = current_span_context();
    std::thread worker([handed] {
      // Rule 2: the cursor does not follow threads; the explicit-parent
      // constructor does.
      Span work("worker.task", handed);
      Span child("worker.child");  // rule 1 under the worker span
      (void)child;
    });
    worker.join();
  }
  const auto spans = collect_spans();
  ASSERT_EQ(spans.size(), 3u);
  const auto* request = find_span(spans, "request");
  const auto* work = find_span(spans, "worker.task");
  const auto* child = find_span(spans, "worker.child");
  ASSERT_TRUE(request && work && child);
  EXPECT_EQ(work->trace_id, request->trace_id);
  EXPECT_EQ(work->parent_id, request->span_id);
  EXPECT_EQ(child->parent_id, work->span_id);
  EXPECT_NE(work->thread_index, request->thread_index);
}

TEST_F(SpanTest, NewThreadWithoutHandOffStartsItsOwnTrace) {
  Span request("request");
  u64 worker_trace = 0;
  std::thread worker([&worker_trace] {
    Span work("worker.task");
    worker_trace = work.context().trace_id;
  });
  worker.join();
  EXPECT_NE(worker_trace, 0u);
  EXPECT_NE(worker_trace, request.context().trace_id);
}

TEST_F(SpanTest, ParallelForWorkersJoinTraceViaHandOff) {
  // The OpenMP/parallel-region shape: capture the context once, hand it
  // into the region, one explicit-parent span per worker invocation.
  SpanContext parent_ctx;
  {
    Span solve("solve");
    parent_ctx = current_span_context();
    parallel_for(0, 8, [&](std::size_t) {
      Span chunk("solve.chunk", parent_ctx);
      (void)chunk;
    });
  }
  const auto spans = collect_spans();
  const auto* solve = find_span(spans, "solve");
  ASSERT_NE(solve, nullptr);
  u32 chunks = 0;
  for (const auto& s : spans)
    if (std::string(s.name) == "solve.chunk") {
      ++chunks;
      EXPECT_EQ(s.trace_id, solve->trace_id);
      EXPECT_EQ(s.parent_id, solve->span_id);
    }
  EXPECT_EQ(chunks, 8u);
}

TEST_F(SpanTest, RingWrapKeepsMostRecentSpans) {
  const std::size_t cap = span_ring_capacity();
  for (std::size_t i = 0; i < cap + 100; ++i) {
    Span s("wrap.filler");
    (void)s;
  }
  const auto spans = collect_spans();
  // This thread's ring is full but not overflowing; other threads may
  // have contributed a handful of spans in earlier tests (cleared in
  // SetUp, so only this loop's records remain).
  EXPECT_EQ(spans.size(), cap);
  // Oldest-first per ring: start times are monotone for one thread.
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns);
}

TEST_F(SpanTest, ClearSpansEmptiesRings) {
  { Span s("to.clear"); }
  EXPECT_EQ(collect_spans().size(), 1u);
  clear_spans();
  EXPECT_TRUE(collect_spans().empty());
}

// --- end-to-end: the serve pipeline produces the documented tree -----

TEST_F(SpanTest, RecomputePublishYieldsSolverStageChildren) {
  graph::WebGenConfig gen;
  gen.num_sources = 60;
  gen.num_spam_sources = 4;
  gen.seed = 17;
  const auto corpus = graph::generate_web_corpus(gen);
  const core::SourceMap map = core::SourceMap::from_corpus(corpus);
  const core::SpamResilientSourceRank model(corpus.pages, map);

  serve::SnapshotStore store;
  serve::RecomputePipeline pipeline(model, corpus.source_hosts, store);
  {
    Span request("request.recompute");
    pipeline.submit(std::vector<f64>(model.num_sources(), 0.25), "test");
  }
  pipeline.drain();
  pipeline.stop();  // worker joined: its ring is quiescent

  const auto spans = collect_spans();
  const auto* request = find_span(spans, "request.recompute");
  ASSERT_NE(request, nullptr);
  const auto* recompute = find_child(spans, "serve.recompute", *request);
  ASSERT_NE(recompute, nullptr);
  const auto* push = find_child(spans, "rank.push.solve", *recompute);
  const auto* build = find_child(spans, "serve.snapshot_build", *recompute);
  ASSERT_TRUE(push && build);

  // One causal tree: request -> serve.recompute -> {rank.push.solve,
  // serve.snapshot_build}. The pipeline's construction-time cold push
  // is a root of its own, outside the request's trace.
  EXPECT_EQ(recompute->trace_id, request->trace_id);
  EXPECT_EQ(push->trace_id, request->trace_id);
  EXPECT_EQ(build->trace_id, request->trace_id);
  u32 pushes = 0;
  for (const auto& s : spans) {
    if (std::string("rank.push.solve") != s.name) continue;
    ++pushes;
    if (&s != push) {
      EXPECT_EQ(s.parent_id, 0u);
    }
  }
  EXPECT_EQ(pushes, 2u);
  // Nothing else ran under the recompute: no power solve, no throttle
  // view.
  EXPECT_EQ(find_span(spans, "rank.power.solve"), nullptr);
  EXPECT_EQ(find_span(spans, "core.solve"), nullptr);
}

TEST_F(SpanTest, QuerySpansAreRoots) {
  graph::WebGenConfig gen;
  gen.num_sources = 40;
  gen.num_spam_sources = 2;
  gen.seed = 23;
  const auto corpus = graph::generate_web_corpus(gen);
  const core::SourceMap map = core::SourceMap::from_corpus(corpus);
  const core::SpamResilientSourceRank model(corpus.pages, map);

  serve::SnapshotStore store;
  serve::RecomputePipeline pipeline(model, corpus.source_hosts, store);
  pipeline.submit(std::vector<f64>(model.num_sources(), 0.0), "baseline");
  pipeline.drain();
  pipeline.stop();
  clear_spans();  // only the queries below remain

  const serve::QueryEngine engine(store);
  (void)engine.score(NodeId{0});
  (void)engine.top_k(5);

  const auto spans = collect_spans();
  const auto* score = find_span(spans, "serve.query.score");
  const auto* top_k = find_span(spans, "serve.query.top_k");
  ASSERT_TRUE(score && top_k);
  EXPECT_EQ(score->parent_id, 0u);
  EXPECT_EQ(top_k->parent_id, 0u);
  EXPECT_NE(score->trace_id, top_k->trace_id);  // independent requests
}

}  // namespace
}  // namespace srsr::obs
