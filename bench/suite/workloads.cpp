// The four workloads of the suite. Each one stresses a different part of
// the write or read path, so that a change to one layer shows on the
// workload that runs it and stays flat on those that bypass it:
//
//   crawl_start  the restart users pay for: parse a crawl directory,
//                build the model, publish the first epoch (WB2001S).
//   cold_build   the same path from an in-memory corpus: source-graph
//                derivation, T' and its transpose, the cold power solve
//                (WB2001M). No parsing, no stream, no queries under load.
//   edit_stream  single-host topology edits through the dynamic pipeline:
//                push, dirty-row re-derivation, snapshot build (WB2001M).
//                No pull kernel, no full derivation.
//   query_churn  an open loop of readers at four fixed rates beside a
//                writer re-publishing κ every 500 ms on the static
//                pipeline (WB2001M): the only workload with reads under
//                load and the only one that times the warm κ swap.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

#include "bench/common.hpp"
#include "core/kappa.hpp"
#include "core/spam_proximity.hpp"
#include "graph/io.hpp"
#include "serve/recompute.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"
#include "stream/dynamic_graph.hpp"
#include "stream/edge_stream.hpp"
#include "stream/incremental.hpp"
#include "suite.hpp"

namespace srsr::suite {

namespace {

namespace fs = std::filesystem;

/// Operations one run measures. The counts are fixed, so sample sizes,
/// medians and peak RSS do not depend on how fast the host was.
struct Counts {
  u32 starts;       // crawl_start
  u32 cold_builds;  // cold_build
  u32 commits;      // edit_stream, every kBulkEvery-th a bulk batch
};
constexpr Counts kCounts{5, 10, 110};
constexpr Counts kSmokeCounts{2, 2, 20};

const Counts& counts(const Options& o) { return o.smoke ? kSmokeCounts : kCounts; }

// ---- The static start path ------------------------------------------

/// A model with the source map it borrows, and the κ it published.
struct StaticModel {
  std::unique_ptr<core::SourceMap> map;
  std::unique_ptr<core::SpamResilientSourceRank> model;
  std::vector<f64> kappa;
  bool published = false;
};

/// The serve start path after the corpus is in memory: SourceMap ->
/// model -> spam proximity + top-k κ -> make_snapshot -> publish. An
/// unconverged solve publishes nothing, as in RecomputePipeline.
StaticModel publish_cold(const graph::Graph& pages,
                         std::vector<NodeId> page_source,
                         std::vector<std::string> hosts,
                         const std::vector<NodeId>& seeds, const Policy& policy,
                         serve::SnapshotStore& store) {
  StaticModel out;
  {
    obs::Span span("core.source_map");
    out.map = std::make_unique<core::SourceMap>(std::move(page_source));
  }
  {
    obs::Span span("core.model");
    out.model = std::make_unique<core::SpamResilientSourceRank>(
        pages, *out.map, bench::paper_srsr_config());
  }
  rank::RankResult proximity;
  {
    obs::Span span("core.spam_proximity");
    proximity =
        core::spam_proximity(out.model->source_graph().topology(), seeds);
  }
  {
    obs::Span span("core.kappa_policy");
    out.kappa = core::kappa_top_k(proximity.scores, policy.top_k);
  }
  serve::SnapshotBuild build;
  build.policy = policy.name;
  serve::RankSnapshot snapshot =
      serve::make_snapshot(*out.model, out.kappa, std::move(hosts), build);
  if (!snapshot.meta().converged) return out;
  {
    obs::Span span("serve.publish");
    store.publish(std::move(snapshot));
  }
  out.published = true;
  return out;
}

/// Per-layer metrics of the static start path (crawl_start, cold_build).
void report_start_layers(const std::vector<obs::SpanRecord>& spans,
                         const StaticModel& last, const Samples& untraced,
                         const Samples& traced, Result& result) {
  const auto stats = span_stats(spans);
  const auto median_of = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second.duration_s.median();
  };
  result.set("core.source_map_s", median_of("core.source_map"));
  result.set("serve.publish_us", median_of("serve.publish") * 1e6);
  report_static_layers(obs::MetricsRegistry::instance().snapshot(), stats,
                       last.model->num_sources(),
                       last.model->base_matrix().num_entries(), result);
  result.set("trace_overhead_pct", overhead_pct(traced, untraced));
}

/// Gate: a cold σ against the same operator solved to L1 1e-14.
void gate_cold_sigma(const StaticModel& m, std::span<const f64> sigma,
                     Result& result) {
  const rank::RankResult ref = tight_solve(*m.model, m.kappa);
  result.add_gate("cold_sigma_l1_vs_tight_reference",
                  ref.converged ? l1_distance(sigma, ref.scores)
                                : std::numeric_limits<f64>::infinity(),
                  paper_error_bound(m.model->num_sources()));
}

// ---- crawl_start ------------------------------------------------------

/// Writes `corpus` as a crawl directory in the `srsr_cli generate`
/// format; labels.txt holds the policy's seed hosts.
void write_crawl(const graph::WebCorpus& corpus, const Policy& policy,
                 const fs::path& dir) {
  fs::create_directories(dir);
  {
    std::ofstream pages(dir / "pages.txt");
    for (NodeId p = 0; p < corpus.num_pages(); ++p)
      pages << p << " http://" << corpus.source_hosts[corpus.page_source[p]]
            << "/page" << p << '\n';
    check(pages.good(), "crawl_start: cannot write " + dir.string());
  }
  graph::write_edge_list_file((dir / "edges.txt").string(), corpus.pages);
  std::ofstream labels(dir / "labels.txt");
  for (const NodeId s : policy.seeds) labels << corpus.source_hosts[s] << '\n';
  check(labels.good(), "crawl_start: cannot write " + dir.string());
}

struct CorpusInputs {
  graph::WebCorpus corpus;
  Policy policy;
};

}  // namespace

void run_crawl_start(const Options& o, Result& result) {
  const fs::path dir = fs::path(o.work_dir) / ("crawl-s" + std::to_string(o.seed));
  const auto in = repeated_setup(result, [&] {
    auto s = std::make_unique<CorpusInputs>();
    s->corpus = make_corpus(CorpusSize::kWB2001S, o);
    s->policy = paper_policy(s->corpus, o.seed);
    write_crawl(s->corpus, s->policy, dir);
    return s;
  });
  note_corpus(CorpusSize::kWB2001S, o, in->corpus, result);

  // The gates' reference, untimed: the same path on the in-memory corpus.
  serve::SnapshotStore ref_store;
  {
    const StaticModel ref =
        publish_cold(in->corpus.pages, in->corpus.page_source,
                     in->corpus.source_hosts, in->policy.seeds, in->policy,
                     ref_store);
    check(ref.published, "crawl_start: in-memory reference did not converge");
    gate_cold_sigma(ref, ref_store.current()->scores(), result);
  }
  const serve::SnapshotPtr ref = ref_store.current();

  serve::SnapshotStore store;
  Samples untraced_s, traced_s, parse_s;
  StaticModel last;
  u64 links = 0;
  f64 host_l1 = 0.0;
  for (u32 trial = 0; trial < counts(o).starts; ++trial) {
    const bool traced = o.traced && trial % 2 == 1;
    last = {};
    graph::WebCorpus crawl;
    set_telemetry(traced);
    const u64 t0 = now_ns();
    {
      obs::Span root("bench.crawl_start");
      std::vector<NodeId> seeds;
      {
        obs::Span span("graph.io.parse");
        const u64 p0 = now_ns();
        std::ifstream pages(dir / "pages.txt");
        std::ifstream edges(dir / "edges.txt");
        std::ifstream labels(dir / "labels.txt");
        check(pages.good() && edges.good() && labels.good(),
              "crawl_start: cannot open the crawl in " + dir.string());
        crawl = graph::read_url_corpus(pages, edges);
        seeds = graph::match_hosts(crawl, labels);
        parse_s.add(seconds_since(p0));
      }
      last = publish_cold(crawl.pages, crawl.page_source, crawl.source_hosts,
                          seeds, in->policy, store);
    }
    const f64 seconds = seconds_since(t0);
    set_telemetry(false);
    links = crawl.pages.num_edges();
    ++result.attempted;
    Samples& into = traced ? traced_s : untraced_s;
    if (!last.published) {
      ++result.failed;
      into.add_failure();
      continue;
    }
    into.add(seconds);

    // Gate: every start serves the in-memory σ, host by host.
    const serve::SnapshotPtr snap = store.current();
    f64 l1 = 0.0;
    for (NodeId s = 0; s < snap->num_sources(); ++s) {
      const auto id = ref->id_of(snap->host(s));
      l1 += id ? std::abs(snap->score(s) - ref->score(*id))
               : std::numeric_limits<f64>::infinity();
    }
    if (snap->num_sources() != ref->num_sources())
      l1 = std::numeric_limits<f64>::infinity();
    host_l1 = std::max(host_l1, l1);
  }
  result.set("peak_rss_mb", peak_rss_mb());
  result.set("crawl_start_s", untraced_s.median());
  result.add_timing("crawl_start", "s", untraced_s);
  result.add_gate("crawl_sigma_l1_vs_memory_by_host", host_l1,
                  paper_error_bound(ref->num_sources()));
  result.note("crawl.links", static_cast<f64>(links));
  fs::remove_all(dir);

  if (o.traced) {
    const auto spans = collect_trace(o, result);
    result.set("graph.io.parse_s", parse_s.median());
    result.set("graph.io.ns_per_link",
               parse_s.median() * 1e9 / static_cast<f64>(links));
    report_start_layers(spans, last, untraced_s, traced_s, result);
    result.set("serve.published", static_cast<f64>(store.epoch()));
  }
}

void run_cold_build(const Options& o, Result& result) {
  const auto in = repeated_setup(result, [&] {
    auto s = std::make_unique<CorpusInputs>();
    s->corpus = make_corpus(CorpusSize::kWB2001M, o);
    s->policy = paper_policy(s->corpus, o.seed);
    return s;
  });
  note_corpus(CorpusSize::kWB2001M, o, in->corpus, result);

  serve::SnapshotStore store;
  Samples untraced_s, traced_s;
  StaticModel last;
  for (u32 trial = 0; trial < counts(o).cold_builds; ++trial) {
    const bool traced = o.traced && trial % 2 == 1;
    last = {};
    set_telemetry(traced);
    const u64 t0 = now_ns();
    {
      obs::Span root("bench.cold_build");
      last = publish_cold(in->corpus.pages, in->corpus.page_source,
                          in->corpus.source_hosts, in->policy.seeds,
                          in->policy, store);
    }
    const f64 seconds = seconds_since(t0);
    set_telemetry(false);
    ++result.attempted;
    Samples& into = traced ? traced_s : untraced_s;
    if (!last.published) {
      ++result.failed;
      into.add_failure();
      continue;
    }
    into.add(seconds);
  }
  result.set("peak_rss_mb", peak_rss_mb());
  result.set("cold_publish_s", untraced_s.median());
  result.add_timing("cold_publish", "s", untraced_s);
  if (last.published) gate_cold_sigma(last, store.current()->scores(), result);

  if (o.traced) {
    const auto spans = collect_trace(o, result);
    report_start_layers(spans, last, untraced_s, traced_s, result);
    result.set("serve.published", static_cast<f64>(store.epoch()));
  }
}

// ---- edit_stream -----------------------------------------------------

namespace {

/// Push tolerance of the incremental ranker (its default): the
/// unnormalized error is bounded by n * epsilon / (1 - alpha).
constexpr f64 kPushEpsilon = 1e-12;
constexpr u32 kBulkHosts = 256;
constexpr u32 kBulkEvery = 20;
constexpr u32 kRankStrata = 16;

/// Edited hosts, stratified by rank in the first published epoch. A
/// host's push work grows with its score, so uniform draws make the
/// median edit cost swing by 10% between seeds; instead every cycle of
/// kRankStrata single-host commits edits one host of every rank stratum,
/// in seeded order, and a bulk batch takes the same share from each.
class HostPicker {
 public:
  HostPicker(std::span<const NodeId> by_rank, u64 seed)
      : by_rank_(by_rank.begin(), by_rank.end()), rng_(seed, 19) {}

  u32 next() {
    if (cycle_pos_ == 0) {
      order_.resize(kRankStrata);
      for (u32 s = 0; s < kRankStrata; ++s) order_[s] = s;
      shuffle(rng_, order_);
    }
    const u32 stratum = order_[cycle_pos_];
    cycle_pos_ = (cycle_pos_ + 1) % kRankStrata;
    return by_rank_[begin(stratum) + rng_.next_below(size(stratum))];
  }

  std::vector<u32> bulk(u32 count) {
    std::vector<u32> out;
    for (u32 s = 0; s < kRankStrata; ++s)
      for (const u32 i : sample_without_replacement(rng_, size(s), count / kRankStrata))
        out.push_back(by_rank_[begin(s) + i]);
    return out;
  }

 private:
  u32 begin(u32 stratum) const {
    return static_cast<u32>(u64{stratum} * by_rank_.size() / kRankStrata);
  }
  u32 size(u32 stratum) const { return begin(stratum + 1) - begin(stratum); }

  std::vector<NodeId> by_rank_;
  Pcg32 rng_;
  std::vector<u32> order_;
  u32 cycle_pos_ = 0;
};

struct EditState {
  graph::WebCorpus corpus;
  Policy policy;
  std::unique_ptr<core::SourceMap> map;
  std::unique_ptr<stream::DynamicSourceGraph> graph;
  std::unique_ptr<stream::IncrementalRanker> ranker;
  serve::SnapshotStore store;
  std::unique_ptr<serve::RecomputePipeline> pipeline;  // stopped first
};

std::unique_ptr<EditState> build_edit_state(const Options& o) {
  auto s = std::make_unique<EditState>();
  s->corpus = make_corpus(CorpusSize::kWB2001M, o);
  s->policy = paper_policy(s->corpus, o.seed);
  s->map = std::make_unique<core::SourceMap>(s->corpus.page_source);
  s->graph = std::make_unique<stream::DynamicSourceGraph>(
      s->corpus.pages, *s->map, s->corpus.source_hosts);
  stream::IncrementalConfig cfg;
  cfg.alpha = bench::kAlpha;
  cfg.epsilon = kPushEpsilon;
  cfg.mode = core::ThrottleMode::kTeleportDiscard;
  s->ranker = std::make_unique<stream::IncrementalRanker>(*s->graph, cfg);
  const rank::RankResult proximity =
      core::spam_proximity(s->graph->topology(), s->policy.seeds);
  s->pipeline = std::make_unique<serve::RecomputePipeline>(*s->ranker, s->store);
  s->pipeline->submit(core::kappa_top_k(proximity.scores, s->policy.top_k),
                      s->policy.name);
  s->pipeline->drain();
  check(s->pipeline->stats().published == 1,
        "edit_stream: initial publish failed: " +
            s->pipeline->stats().last_error);
  return s;
}

/// The bench's own copy of the page adjacency (sorted, distinct), kept
/// in step with every committed edit, for the final parity gate.
using Shadow = std::vector<std::vector<NodeId>>;

struct Edit {
  bool insert = false;
  NodeId u = 0, v = 0;
};

/// One host edit: on a random page of `source`, erase one existing
/// out-link and insert three links to random pages.
void stage_host_edit(stream::EdgeStream& es, const EditState& s,
                     const Shadow& shadow, NodeId source, Pcg32& rng,
                     std::vector<Edit>& staged) {
  const NodeId page = s.corpus.source_first_page[source] +
                      rng.next_below(s.corpus.source_page_count[source]);
  const auto& out = shadow[page];
  if (!out.empty()) {
    const NodeId v = out[rng.next_below(static_cast<u32>(out.size()))];
    es.erase_link(page, v);
    staged.push_back({false, page, v});
  }
  for (int i = 0; i < 3; ++i) {
    const NodeId v = rng.next_below(s.corpus.num_pages());
    es.insert_link(page, v);
    staged.push_back({true, page, v});
  }
}

void mirror(Shadow& shadow, const std::vector<Edit>& staged) {
  for (const Edit& e : staged) {
    auto& row = shadow[e.u];
    const auto it = std::lower_bound(row.begin(), row.end(), e.v);
    const bool present = it != row.end() && *it == e.v;
    if (e.insert && !present) row.insert(it, e.v);
    if (!e.insert && present) row.erase(it);
  }
}

/// How a commit reaches readers. Traced runs cycle through all three so
/// that the split, the tracing cost and the pipeline's own cost are each
/// measured against the untraced pipeline path.
enum class EditMode { kPipeline, kPipelineTraced, kDirectTraced };

/// The direct path the pipeline's worker runs, driven from the bench so
/// every step is timed from outside: apply -> sigma -> snapshot ->
/// publish. Returns false when nothing was published.
bool direct_commit(EditState& s, stream::EdgeStream& es,
                   stream::UpdateOutcome& outcome) {
  stream::UpdateBatch batch;
  {
    obs::Span span("stream.commit");
    batch = es.commit();
  }
  {
    obs::Span span("stream.apply");
    outcome = s.ranker->apply(batch);
  }
  if (!outcome.converged) return false;
  std::vector<f64> sigma;
  {
    obs::Span span("stream.sigma");
    sigma = s.ranker->sigma();
  }
  serve::SnapshotMeta meta;
  meta.kappa_policy = s.policy.name;
  meta.solver = "push";
  meta.iterations = static_cast<u32>(outcome.pushes);
  meta.residual = outcome.max_residual;
  meta.converged = outcome.converged;
  meta.solve_seconds = outcome.seconds;
  meta.warm_started = outcome.path == stream::UpdatePath::kDelta;
  std::optional<serve::RankSnapshot> snapshot;
  {
    obs::Span span("serve.snapshot_build");
    snapshot.emplace(std::move(sigma), s.graph->hosts(), std::move(meta));
  }
  {
    obs::Span span("serve.publish");
    s.store.publish(std::move(*snapshot));
  }
  return true;
}

graph::Graph graph_of(const Shadow& shadow) {
  std::vector<u64> offsets(shadow.size() + 1, 0);
  for (std::size_t p = 0; p < shadow.size(); ++p)
    offsets[p + 1] = offsets[p] + shadow[p].size();
  std::vector<NodeId> targets;
  targets.reserve(offsets.back());
  for (const auto& row : shadow) targets.insert(targets.end(), row.begin(), row.end());
  return graph::Graph(std::move(offsets), std::move(targets));
}

}  // namespace

void run_edit_stream(const Options& o, Result& result) {
  const auto s = repeated_setup(result, [&] { return build_edit_state(o); });
  note_corpus(CorpusSize::kWB2001M, o, s->corpus, result);
  const serve::SnapshotPtr baseline = s->store.current();
  const u32 ns = s->corpus.num_sources();

  Shadow shadow(s->corpus.num_pages());
  for (NodeId p = 0; p < s->corpus.num_pages(); ++p) {
    const auto out = s->corpus.pages.out_neighbors(p);
    shadow[p].assign(out.begin(), out.end());
    shadow[p].erase(std::unique(shadow[p].begin(), shadow[p].end()),
                    shadow[p].end());
  }

  Pcg32 edit_rng(o.seed, 17);
  stream::EdgeStream es(s->graph->num_pages());
  std::vector<Edit> staged;
  Samples single_ms, bulk_ms, traced_ms, direct_ms;
  Samples dirty_rows, pushes, touched, seed_mass;
  std::array<u64, 3> paths{};  // delta, full, fallback
  u64 direct_published = 0, direct_failed = 0;

  HostPicker picker(baseline->top(ns), o.seed);
  u64 singles = 0;
  for (u32 i = 0; i < counts(o).commits; ++i) {
    const bool bulk = i % kBulkEvery == kBulkEvery - 1;
    const EditMode mode = bulk || !o.traced ? EditMode::kPipeline
                                            : static_cast<EditMode>(singles % 3);
    if (!bulk) ++singles;
    const std::vector<u32> hosts =
        bulk ? picker.bulk(kBulkHosts) : std::vector<u32>{picker.next()};
    staged.clear();
    const u64 epoch = s->store.epoch();
    const auto before = s->pipeline->stats();
    stream::UpdateOutcome outcome;
    bool ok = false;
    set_telemetry(mode != EditMode::kPipeline);
    const u64 t0 = now_ns();
    if (mode == EditMode::kDirectTraced) {
      obs::Span root("bench.edit_direct");
      for (const u32 h : hosts) stage_host_edit(es, *s, shadow, h, edit_rng, staged);
      ok = direct_commit(*s, es, outcome);
    } else {
      obs::Span root("bench.edit");
      for (const u32 h : hosts) stage_host_edit(es, *s, shadow, h, edit_rng, staged);
      stream::UpdateBatch batch;
      {
        obs::Span span("stream.commit");
        batch = es.commit();
      }
      s->pipeline->submit_update(std::move(batch));
      s->pipeline->drain();
    }
    const f64 ms = seconds_since(t0) * 1e3;
    set_telemetry(false);
    mirror(shadow, staged);

    if (mode == EditMode::kDirectTraced) {
      ok = ok && s->store.epoch() == epoch + 1;
      ok ? ++direct_published : ++direct_failed;
      dirty_rows.add(static_cast<f64>(outcome.dirty_rows));
      pushes.add(static_cast<f64>(outcome.pushes));
      touched.add(static_cast<f64>(outcome.touched));
      seed_mass.add(outcome.seed_mass);
      ++paths[static_cast<std::size_t>(outcome.path)];
    } else {
      const auto after = s->pipeline->stats();
      ok = s->store.epoch() == epoch + 1 && after.failed == before.failed;
      if (after.last_path == "delta") ++paths[0];
      if (after.last_path == "full") ++paths[1];
      if (after.last_path == "fallback") ++paths[2];
    }
    Samples& into = bulk ? bulk_ms
                    : mode == EditMode::kPipeline       ? single_ms
                    : mode == EditMode::kPipelineTraced ? traced_ms
                                                        : direct_ms;
    ++result.attempted;
    if (ok) {
      into.add(ms);
    } else {
      ++result.failed;
      into.add_failure();
    }
  }
  s->pipeline->drain();
  result.set("peak_rss_mb", peak_rss_mb());
  result.set("edit_publish_ms", single_ms.median());
  result.set("edit_publish_p90_ms", single_ms.quantile(0.9));
  result.set("bulk_publish_ms", bulk_ms.median());
  result.add_timing("edit_publish", "ms", single_ms);
  result.add_timing("bulk_publish", "ms", bulk_ms);

  // Gate: the final σ against a tight cold solve of the mirrored graph,
  // within the push bound n * epsilon / (1 - alpha).
  {
    const graph::Graph pages = graph_of(shadow);
    const core::SpamResilientSourceRank model(pages, *s->map,
                                              bench::paper_srsr_config());
    const rank::RankResult ref = tight_solve(model, s->ranker->kappa());
    result.add_gate("edit_sigma_l1_vs_tight_cold_solve",
                    ref.converged ? l1_distance(s->store.current()->scores(),
                                                ref.scores)
                                  : std::numeric_limits<f64>::infinity(),
                    static_cast<f64>(ns) * kPushEpsilon / (1.0 - bench::kAlpha));
  }

  if (o.traced) {
    const auto spans = collect_trace(o, result);
    const auto stats = span_stats(spans);
    const auto median_of = [&](const char* name) {
      const auto it = stats.find(name);
      return it == stats.end() ? 0.0 : it->second.duration_s.median();
    };
    const auto reg = obs::MetricsRegistry::instance().snapshot();
    result.set("stream.commit_us", median_of("stream.commit") * 1e6);
    result.set("stream.apply_ms", median_of("stream.apply") * 1e3);
    result.set("stream.sigma_ms", median_of("stream.sigma") * 1e3);
    result.set("serve.snapshot_build_ms",
               median_of("serve.snapshot_build") * 1e3);
    result.set("serve.publish_us", median_of("serve.publish") * 1e6);
    result.set("stream.dirty_rows", dirty_rows.median());
    result.set("rank.push.pushes", pushes.median());
    result.set("rank.push.touched_rows", touched.median());
    result.set("stream.seed_mass", seed_mass.median());
    const f64 total_pushes = counter_value(reg, "srsr.rank.push.pushes");
    if (total_pushes > 0)
      result.set("rank.push.ns_per_push",
                 histogram_sum(reg, "srsr.rank.push.seconds") * 1e9 /
                     total_pushes);
    result.set("stream.path.delta", static_cast<f64>(paths[0]));
    result.set("stream.path.full", static_cast<f64>(paths[1]));
    result.set("stream.path.fallback", static_cast<f64>(paths[2]));
    result.set("serve.queue_wait_ms",
               hand_offs(spans, "bench.edit", "serve.update").wait_s.median() *
                   1e3);
    result.set("serve.pipeline_overhead_ms",
               single_ms.median() - direct_ms.median());
    const auto st = s->pipeline->stats();
    result.set("serve.published",
               static_cast<f64>(st.published + direct_published));
    result.set("serve.failed", static_cast<f64>(st.failed + direct_failed));
    result.set("serve.coalesced",
               static_cast<f64>(st.coalesced + st.coalesced_batches));
    result.set("trace_overhead_pct", overhead_pct(traced_ms, single_ms));
  }
}

// ---- query_churn -------------------------------------------------------

namespace {

constexpr u32 kReaders = 2;
constexpr std::array<f64, 4> kRatesQps = {200e3, 400e3, 800e3, 1600e3};
constexpr std::array<const char*, 4> kRateNames = {"r200k", "r400k", "r800k",
                                                   "r1600k"};
/// A rung meets the latency limit when its p99 stays under this and the
/// generator is less than kLagLimitMs behind at its end.
constexpr f64 kP99LimitUs = 50.0;
constexpr f64 kLagLimitMs = 1.0;
constexpr f64 kWritePeriodS = 0.5;
/// The writer's cycle: κ throttling the top 1×, 2× and 4× |spam|, then a
/// label update (a fresh spam-seed sample, throttling 2× |spam|). The
/// cycle is the same for every seed, so every run times the same mix of
/// κ transitions; the seed picks the policy and the label samples.
constexpr std::array<u32, 3> kKappaMultiples = {1, 2, 4};
constexpr u32 kLabelMultiple = 2;
constexpr u32 kCycle = kKappaMultiples.size() + 1;
constexpr u32 kLabelSamples = 4;
/// Every 4096th query samples the live snapshot's checksum and epoch.
constexpr u64 kCheckEvery = 4096;

struct ChurnState {
  graph::WebCorpus corpus;
  Policy policy;
  std::unique_ptr<core::SourceMap> map;
  std::unique_ptr<core::SpamResilientSourceRank> model;
  std::array<std::vector<f64>, kKappaMultiples.size()> kappas;
  std::vector<std::vector<NodeId>> label_seeds;
  serve::SnapshotStore store;
  std::unique_ptr<serve::QueryEngine> engine;
  std::unique_ptr<serve::RecomputePipeline> pipeline;  // stopped first
};

std::unique_ptr<ChurnState> build_churn_state(const Options& o) {
  auto s = std::make_unique<ChurnState>();
  s->corpus = make_corpus(CorpusSize::kWB2001M, o);
  s->policy = paper_policy(s->corpus, o.seed);
  s->map = std::make_unique<core::SourceMap>(s->corpus.page_source);
  s->model = std::make_unique<core::SpamResilientSourceRank>(
      s->corpus.pages, *s->map, bench::paper_srsr_config());
  const rank::RankResult proximity = core::spam_proximity(
      s->model->source_graph().topology(), s->policy.seeds);
  for (std::size_t j = 0; j < kKappaMultiples.size(); ++j)
    s->kappas[j] = core::kappa_top_k(proximity.scores,
                                     kKappaMultiples[j] * s->policy.spam);
  const std::vector<NodeId> spam = s->corpus.spam_sources();
  for (u32 j = 0; j < kLabelSamples; ++j)
    s->label_seeds.push_back(bench::sample_spam_seeds(spam, 0.1, o.seed + 1 + j));

  serve::SnapshotBuild baseline_build;
  baseline_build.policy = "baseline";
  const std::vector<f64> zeros(s->corpus.num_sources(), 0.0);
  auto baseline = std::make_shared<const serve::RankSnapshot>(serve::make_snapshot(
      *s->model, zeros, s->corpus.source_hosts, baseline_build));
  s->engine = std::make_unique<serve::QueryEngine>(s->store, std::move(baseline));
  s->pipeline = std::make_unique<serve::RecomputePipeline>(
      *s->model, s->corpus.source_hosts, s->store);
  s->pipeline->submit(s->kappas[1], s->policy.name);
  s->pipeline->drain();
  check(s->pipeline->stats().published == 1,
        "query_churn: initial publish failed: " + s->pipeline->stats().last_error);
  return s;
}

/// [reader][rung] pre-generated queries. The load generator's own data,
/// so it is made after the timed set-up.
using Schedule = std::array<std::array<std::vector<u32>, kRatesQps.size()>, kReaders>;

Schedule make_schedule(u32 num_hosts, const Options& o) {
  const QueryMix mix(num_hosts, o.seed);
  Pcg32 rng(o.seed, 13);
  Schedule schedule;
  for (auto& per_reader : schedule)
    for (std::size_t r = 0; r < kRatesQps.size(); ++r)
      per_reader[r] = mix.draw(
          static_cast<std::size_t>(kRatesQps[r] / kReaders * o.seconds /
                                   static_cast<f64>(kRatesQps.size())),
          rng);
  return schedule;
}

struct RungLog {
  std::vector<u32> latency_ns;  // per scheduled query, from its due time
  u64 sent = 0;
  u64 failed = 0;
  u64 lag_ns = 0;  // how late the generator ran at the rung's end
};

struct ReaderLog {
  std::array<RungLog, kRatesQps.size()> rungs;
  u64 epoch_regressions = 0;
};

/// Snapshots the readers sampled, verified by the writer thread:
/// verify_checksum() is O(V) (about a millisecond at WB2001M), and run
/// inline it would stall the open loop behind it. Readers hand over each
/// epoch they sample once; the writer verifies while it waits anyway.
class SampledSnapshots {
 public:
  void offer(serve::SnapshotPtr snapshot) {
    const std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(std::move(snapshot));
  }
  /// Verifies and releases everything offered so far; returns failures.
  u64 verify() {
    std::vector<serve::SnapshotPtr> batch;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      batch.swap(pending_);
    }
    u64 failures = 0;
    for (const serve::SnapshotPtr& snap : batch)
      failures += snap->verify_checksum() ? 0 : 1;
    return failures;
  }

 private:
  std::mutex mutex_;
  std::vector<serve::SnapshotPtr> pending_;
};

u32 clamp_ns(u64 ns) {
  return static_cast<u32>(std::min<u64>(ns, std::numeric_limits<u32>::max()));
}

/// One open-loop reader: query i of a rung is due at a fixed time and is
/// timed from then, so a stall shows in every query it delays. Queries
/// still unsent when the rung ends are recorded as late by at least the
/// time left in the rung.
void reader_loop(const ChurnState& s, const Schedule& schedule, u32 reader,
                 u64 t0, u64 rung_ns, SampledSnapshots& sampled, ReaderLog& log) {
  const std::vector<std::string>& hosts = s.corpus.source_hosts;
  u64 count = 0, last_epoch = 0;
  for (std::size_t r = 0; r < kRatesQps.size(); ++r) {
    const std::vector<u32>& queries = schedule[reader][r];
    RungLog& rung = log.rungs[r];
    const u64 start = t0 + r * rung_ns;
    const u64 end = start + rung_ns;
    const f64 interval = static_cast<f64>(rung_ns) / static_cast<f64>(queries.size());
    const f64 offset = interval * reader / kReaders;
    const auto due_of = [&](std::size_t i) {
      return start + static_cast<u64>(offset + interval * static_cast<f64>(i));
    };
    std::size_t i = 0;
    for (; i < queries.size(); ++i) {
      const u64 due = due_of(i);
      u64 now = now_ns();
      while (now < due) now = now_ns();
      if (now >= end) {
        rung.lag_ns = now - due;
        break;
      }
      const bool ok = run_query(*s.engine, hosts, queries[i]);
      rung.latency_ns[i] =
          ok ? clamp_ns(now_ns() - due) : std::numeric_limits<u32>::max();
      rung.lag_ns = now - due;
      ++rung.sent;
      if (!ok) ++rung.failed;
      if (++count % kCheckEvery == 0) {
        serve::SnapshotPtr snap = s.engine->snapshot();
        const u64 epoch = snap->meta().epoch;
        if (epoch < last_epoch) ++log.epoch_regressions;
        if (epoch != last_epoch) sampled.offer(std::move(snap));
        last_epoch = epoch;
      }
    }
    for (; i < queries.size(); ++i)
      rung.latency_ns[i] = clamp_ns(end - std::min(end, due_of(i)));
  }
}

}  // namespace

void run_query_churn(const Options& o, Result& result) {
  const auto s = repeated_setup(result, [&] { return build_churn_state(o); });
  note_corpus(CorpusSize::kWB2001M, o, s->corpus, result);
  const Schedule schedule = make_schedule(s->corpus.num_sources(), o);

  std::array<ReaderLog, kReaders> logs;
  for (u32 reader = 0; reader < kReaders; ++reader)
    for (std::size_t r = 0; r < kRatesQps.size(); ++r)
      logs[reader].rungs[r].latency_ns.assign(schedule[reader][r].size(), 0);

  const u64 rung_ns = static_cast<u64>(o.seconds / kRatesQps.size() * 1e9);
  const u64 t0 = now_ns() + 50'000'000;  // readers are spinning by then
  const u64 t_end = t0 + rung_ns * kRatesQps.size();
  SampledSnapshots sampled;
  u64 checksum_failures = 0;
  std::vector<std::jthread> readers;
  for (u32 reader = 0; reader < kReaders; ++reader)
    readers.emplace_back(reader_loop, std::cref(*s), std::cref(schedule), reader,
                         t0, rung_ns, std::ref(sampled), std::ref(logs[reader]));

  // The writer: one update of the cycle every 500 ms. Traced runs trace
  // the second half of each rung only; the first half is the control.
  Samples untraced_ms, traced_ms;
  u32 writes = 0;
  std::vector<u64> toggles;  // traced: on at mid-rung, off at rung end
  if (o.traced)
    for (std::size_t r = 0; r < kRatesQps.size(); ++r) {
      toggles.push_back(t0 + r * rung_ns + rung_ns / 2);
      toggles.push_back(t0 + (r + 1) * rung_ns);
    }
  std::size_t next_toggle = 0;
  u64 next_write = t0 + static_cast<u64>(kWritePeriodS * 1e9 / 2);
  bool tracing = false;
  while (true) {
    const u64 next_event = next_toggle < toggles.size()
                               ? std::min(next_write, toggles[next_toggle])
                               : next_write;
    if (next_event >= t_end) break;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(next_event)));
    if (next_toggle < toggles.size() && toggles[next_toggle] <= next_write) {
      tracing = next_toggle % 2 == 0;
      set_telemetry(tracing);
      ++next_toggle;
      continue;
    }
    next_write += static_cast<u64>(kWritePeriodS * 1e9);
    const u32 phase = writes % kCycle;
    const bool labels = phase == kKappaMultiples.size();
    const std::size_t sample = (writes / kCycle) % kLabelSamples;
    const u32 k = labels ? kLabelMultiple : kKappaMultiples[phase];
    ++writes;
    const auto before = s->pipeline->stats();
    const u64 t = now_ns();
    {
      obs::Span root("bench.kappa_update");
      if (labels)
        s->pipeline->submit_spam_labels(s->label_seeds[sample], k * s->policy.spam);
      else
        s->pipeline->submit(s->kappas[phase], "top_" + std::to_string(k) + "x_spam");
      s->pipeline->drain();
    }
    const f64 ms = seconds_since(t) * 1e3;
    const auto after = s->pipeline->stats();
    const bool ok = after.published == before.published + 1 &&
                    after.failed == before.failed;
    Samples& into = tracing ? traced_ms : untraced_ms;
    ++result.attempted;
    if (ok) {
      into.add(ms);
    } else {
      ++result.failed;
      into.add_failure();
    }
    checksum_failures += sampled.verify();
  }
  for (std::jthread& t : readers) t.join();
  set_telemetry(false);
  s->pipeline->drain();
  checksum_failures += sampled.verify();
  result.set("peak_rss_mb", peak_rss_mb());
  result.set("kappa_publish_ms", untraced_ms.median());
  result.add_timing("kappa_publish", "ms", untraced_ms);

  // Read side: every rung's p99 and lag; the 200k rung's medians.
  f64 max_rate = 0.0;
  for (const ReaderLog& log : logs) {
    checksum_failures += log.epoch_regressions;
    for (const RungLog& rung : log.rungs) {
      result.attempted += rung.sent;
      result.failed += rung.failed;
    }
  }
  result.failed += checksum_failures;
  for (std::size_t r = 0; r < kRatesQps.size(); ++r) {
    std::vector<u32> all;
    u64 lag_ns = 0;
    for (const ReaderLog& log : logs) {
      const RungLog& rung = log.rungs[r];
      all.insert(all.end(), rung.latency_ns.begin(), rung.latency_ns.end());
      lag_ns = std::max(lag_ns, rung.lag_ns);
    }
    const f64 p99_us = quantile_ns(all, 0.99) / 1e3;
    const f64 lag_ms = static_cast<f64>(lag_ns) / 1e6;
    result.set(std::string("serve.query.p99_us.") + kRateNames[r], p99_us);
    result.set(std::string("serve.query.gen_lag_ms.") + kRateNames[r], lag_ms);
    result.note(std::string("query.p50_us.") + kRateNames[r], quantile_ns(all, 0.5) / 1e3);
    result.note(std::string("query.p99_us.") + kRateNames[r], p99_us);
    if (p99_us <= kP99LimitUs && lag_ms < kLagLimitMs) max_rate = kRatesQps[r];
  }
  result.set("query_max_rate_qps", max_rate);
  result.set("serve.checksum_failures", static_cast<f64>(checksum_failures));

  // The 200k rung: per-kind latencies, and (traced) the untraced first
  // half against the traced second half.
  std::array<std::vector<u32>, 4> by_kind;
  std::array<std::vector<u32>, 2> by_half;
  for (u32 reader = 0; reader < kReaders; ++reader) {
    const std::vector<u32>& lat = logs[reader].rungs[0].latency_ns;
    const std::vector<u32>& queries = schedule[reader][0];
    for (std::size_t i = 0; i < lat.size(); ++i) {
      by_kind[static_cast<std::size_t>(QueryMix::kind(queries[i]))].push_back(lat[i]);
      by_half[i < lat.size() / 2 ? 0 : 1].push_back(lat[i]);
    }
  }
  for (std::size_t k = 0; k < kQueryKinds.size(); ++k) {
    const std::string prefix = std::string("serve.query.") + kQueryKinds[k];
    result.set(prefix + ".p50_us", quantile_ns(by_kind[k], 0.5) / 1e3);
    result.set(prefix + ".p99_us", quantile_ns(by_kind[k], 0.99) / 1e3);
  }
  const f64 untraced_p50 = quantile_ns(by_half[0], 0.5);
  std::vector<u32> rung0 = by_half[0];
  if (!o.traced) rung0.insert(rung0.end(), by_half[1].begin(), by_half[1].end());
  result.set("query_p50_us", quantile_ns(rung0, 0.5) / 1e3);

  // Gate: the last published σ against a tight solve of the last κ.
  const u32 last = writes - 1;  // setup published kappas[1] before any
  const std::vector<f64> final_kappa =
      writes == 0 ? s->kappas[1]
      : last % kCycle == kKappaMultiples.size()
          ? core::kappa_top_k(
                core::spam_proximity(s->model->source_graph().topology(),
                                     s->label_seeds[(last / kCycle) % kLabelSamples])
                    .scores,
                kLabelMultiple * s->policy.spam)
          : s->kappas[last % kCycle];
  const rank::RankResult ref = tight_solve(*s->model, final_kappa);
  result.add_gate("churn_sigma_l1_vs_tight_reference",
                  ref.converged ? l1_distance(s->store.current()->scores(), ref.scores)
                                : std::numeric_limits<f64>::infinity(),
                  paper_error_bound(s->corpus.num_sources()));

  if (o.traced) {
    const auto spans = collect_trace(o, result);
    const auto stats = span_stats(spans);
    report_static_layers(obs::MetricsRegistry::instance().snapshot(), stats,
                         s->model->num_sources(),
                         s->model->base_matrix().num_entries(), result);
    // Paired per update: the halves trace different parts of the writer's
    // cycle, so untraced and traced medians would compare other updates.
    const HandOff hand_off =
        hand_offs(spans, "bench.kappa_update", "serve.recompute");
    result.set("serve.queue_wait_ms", hand_off.wait_s.median() * 1e3);
    result.set("serve.pipeline_overhead_ms", hand_off.outside_s.median() * 1e3);
    const auto st = s->pipeline->stats();
    result.set("serve.published", static_cast<f64>(st.published));
    result.set("serve.failed", static_cast<f64>(st.failed));
    result.set("serve.coalesced", static_cast<f64>(st.coalesced));
    result.set("trace_overhead_pct",
               untraced_p50 > 0
                   ? 100.0 * (quantile_ns(by_half[1], 0.5) - untraced_p50) /
                         untraced_p50
                   : 0.0);
  }
}

}  // namespace srsr::suite
