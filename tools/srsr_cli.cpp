// srsr — command-line driver for the Spam-Resilient SourceRank library.
//
// Subcommands:
//   generate  --sources N [--spam N] [--seed S] [--terms] --out DIR
//             Write a synthetic crawl as pages.txt / edges.txt /
//             labels.txt (+ terms.txt with --terms).
//   rank      --in DIR [--algo pagerank|sourcerank|srsr] [--top K]
//             [--alpha A] [--topk K] [--trace FILE] [--trace-out FILE]
//             Rank a crawl directory and print the top-K sources.
//             --trace additionally records per-stage wall times and the
//             per-iteration residual series, and writes one RunReport
//             JSON document (obs/report.hpp schema) to FILE.
//             --trace-out enables span tracing and writes the run's span
//             tree as Chrome/Perfetto trace-event JSON to FILE.
//   audit     --in DIR [--topk K]
//             Spam-proximity audit: print the K most spam-proximate
//             sources with their throttle assignment.
//   attack    --in DIR --target-source S --pages N [--cross C]
//             Inject a link farm and report the rank movement of the
//             target under PageRank and SRSR.
//   stats     --in DIR [--alpha A] [--topk K] [--json] [--prometheus]
//             Run the full SRSR pipeline with telemetry enabled and
//             print the run summary plus the metrics registry snapshot
//             (--json emits the snapshot as JSON, --prometheus as
//             Prometheus text exposition format instead).
//   sweep     --in DIR [--configs N] [--alpha A] [--topk K]
//             [--mode absorb|discard] [--trace-out FILE]
//             Build the model ONCE and rank N kappa configurations of
//             increasing throttle strength through the lazy
//             ThrottledView (O(V) plan per configuration over the
//             model's cached transpose); print per-configuration plan +
//             solve wall times. With labels.txt the ramp throttles the
//             spam-proximate sources; without it, every source.
//   serve     --in DIR [--alpha A] [--topk K] [--mode absorb|discard]
//             [--dynamic] [--metrics]
//             Online ranking service: load the crawl, publish a
//             baseline (kappa = 0) and a throttled snapshot, then
//             answer line-oriented requests from stdin until EOF/quit
//             (scriptable: pipe a session in, parse stdout). Requests:
//               top K | score HOST | rank HOST | compare HOST |
//               recompute STRENGTH | labels HOST... | info | stats |
//               metrics | tracefile FILE | quit
//             recompute/labels re-solve in the background pipeline
//             (warm-started) and atomically swap the live snapshot.
//             info also reports the SLO and ranking-drift watchdogs;
//             metrics dumps Prometheus text; tracefile writes collected
//             spans as Perfetto trace JSON.
//             With --dynamic the service runs on the stream subsystem
//             (stream/incremental.hpp): sigma is maintained by an
//             IncrementalRanker and page-level edge mutations can be
//             staged and published without a full re-solve:
//               update link U V | update unlink U V | update page HOST |
//               update commit | update status
//             commit seals the staged batch, routes it through the
//             recompute worker (push-delta with cold fallback), and
//             reports the publish path and push count.
//
// Every subcommand rejects options it does not read ("unknown option
// --X", exit 1), so a typo never silently falls back to a default.
//
// The crawl directory format is the library's text interchange:
//   pages.txt   "<page-id> <url>" per line
//   edges.txt   "<src> <dst>" per line
//   labels.txt  one spam host per line (optional)
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/srsr.hpp"
#include "graph/io.hpp"
#include "graph/webgen.hpp"
#include "metrics/ranking.hpp"
#include "obs/expfmt.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/stage_timer.hpp"
#include "obs/trace.hpp"
#include "rank/pagerank.hpp"
#include "serve/monitor.hpp"
#include "serve/query.hpp"
#include "serve/recompute.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"
#include "spam/attacks.hpp"
#include "stream/dynamic_graph.hpp"
#include "stream/edge_stream.hpp"
#include "stream/incremental.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace srsr;

/// Minimal --flag/value argument parser. `known` lists the options the
/// subcommand reads; any other --key is rejected.
class Args {
 public:
  Args(int argc, char** argv, std::span<const std::string_view> known) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      SRSR_CHECK(starts_with(key, "--"), "unexpected argument '", key, "'");
      key = key.substr(2);
      SRSR_CHECK(std::find(known.begin(), known.end(), key) != known.end(),
                 "unknown option --", key);
      if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean flag
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  std::string require(const std::string& key) const {
    SRSR_CHECK(has(key), "missing required option --", key);
    return values_.at(key);
  }

  u64 get_u64(const std::string& key, u64 fallback) const {
    return has(key) ? parse_u64(values_.at(key)) : fallback;
  }

  f64 get_f64(const std::string& key, f64 fallback) const {
    // parse_f64 throws srsr::Error with the offending text; std::stod
    // would throw a context-free std::invalid_argument (or silently
    // accept trailing garbage like "0.85x").
    return has(key) ? parse_f64(values_.at(key)) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Loads a crawl directory into a WebCorpus (+ blocklisted source ids).
struct LoadedCrawl {
  graph::WebCorpus corpus;
  std::vector<NodeId> spam_seeds;
};

LoadedCrawl load_crawl(const std::string& dir) {
  namespace fs = std::filesystem;
  std::ifstream pages(fs::path(dir) / "pages.txt");
  SRSR_CHECK(pages.good(), "cannot open ", dir, "/pages.txt");
  std::ifstream edges(fs::path(dir) / "edges.txt");
  SRSR_CHECK(edges.good(), "cannot open ", dir, "/edges.txt");
  LoadedCrawl out{graph::read_url_corpus(pages, edges), {}};
  std::ifstream labels(fs::path(dir) / "labels.txt");
  if (labels.good())
    out.spam_seeds = graph::match_hosts(out.corpus, labels);
  return out;
}

int cmd_generate(const Args& args) {
  graph::WebGenConfig cfg;
  cfg.num_sources = static_cast<u32>(args.get_u64("sources", 1000));
  cfg.num_spam_sources = static_cast<u32>(args.get_u64("spam", cfg.num_sources / 50));
  cfg.seed = args.get_u64("seed", 42);
  cfg.generate_terms = args.has("terms");
  const auto corpus = graph::generate_web_corpus(cfg);

  namespace fs = std::filesystem;
  const fs::path dir = args.require("out");
  fs::create_directories(dir);
  {
    std::ofstream pages(dir / "pages.txt");
    for (NodeId p = 0; p < corpus.num_pages(); ++p)
      pages << p << " http://" << corpus.source_hosts[corpus.page_source[p]]
            << "/page" << p << '\n';
  }
  graph::write_edge_list_file((dir / "edges.txt").string(), corpus.pages);
  {
    std::ofstream labels(dir / "labels.txt");
    for (const NodeId s : corpus.spam_sources())
      labels << corpus.source_hosts[s] << '\n';
  }
  if (cfg.generate_terms) {
    std::ofstream terms(dir / "terms.txt");
    for (NodeId p = 0; p < corpus.num_pages(); ++p) {
      terms << p;
      for (const u32 t : corpus.page_terms[p]) terms << ' ' << t;
      terms << '\n';
    }
  }
  std::cout << "wrote " << corpus.num_pages() << " pages / "
            << corpus.pages.num_edges() << " links / "
            << corpus.num_sources() << " hosts ("
            << corpus.spam_sources().size() << " labeled spam) to "
            << dir.string() << '\n';
  return 0;
}

int cmd_rank(const Args& args) {
  const std::string in_dir = args.require("in");
  const std::string algo = args.get("algo", "srsr");
  const u32 top = static_cast<u32>(args.get_u64("top", 10));
  const f64 alpha = args.get_f64("alpha", 0.85);
  const std::string trace_path = args.get("trace", "");
  const bool tracing = args.has("trace");
  SRSR_CHECK(!tracing || !trace_path.empty(), "--trace needs a file path");
  if (tracing) obs::set_metrics_enabled(true);
  const std::string trace_out = args.get("trace-out", "");
  SRSR_CHECK(!args.has("trace-out") || !trace_out.empty(),
             "--trace-out needs a file path");
  if (!trace_out.empty()) obs::set_tracing_enabled(true);
  // Root span of the whole command: the model/solve spans opened deeper
  // in the library nest under it through the thread-local cursor. A
  // no-op (one relaxed load) without --trace-out.
  obs::Span root_span("cli.rank");

  obs::RunReport report("rank");
  obs::IterationTrace trace;

  obs::StageTimer load_stage("cli.load_crawl", &report);
  const auto crawl = load_crawl(in_dir);
  load_stage.stop();
  const auto& corpus = crawl.corpus;

  TextTable t({"#", "Host", "Score"});
  rank::RankResult result;
  std::vector<std::string> names;
  if (algo == "pagerank") {
    rank::SolverConfig cfg;
    cfg.alpha = alpha;
    if (tracing) cfg.convergence.trace = &trace;
    obs::StageTimer solve_stage("cli.solve", &report);
    result = rank::pagerank(corpus.pages, cfg);
    solve_stage.stop();
    for (NodeId p = 0; p < corpus.num_pages(); ++p)
      names.push_back(corpus.source_hosts[corpus.page_source[p]] + "/page" +
                      std::to_string(p));
  } else if (algo == "sourcerank" || algo == "srsr") {
    const core::SourceMap map(corpus.page_source);
    core::SrsrConfig cfg;
    cfg.alpha = alpha;
    cfg.throttle_mode = core::ThrottleMode::kTeleportDiscard;
    if (tracing) cfg.convergence.trace = &trace;
    obs::StageTimer build_stage("cli.build_model", &report);
    const core::SpamResilientSourceRank model(corpus.pages, map, cfg);
    build_stage.stop();
    obs::StageTimer solve_stage("cli.solve", &report);
    if (algo == "srsr" && !crawl.spam_seeds.empty()) {
      const u32 top_k = static_cast<u32>(
          args.get_u64("topk", 2 * crawl.spam_seeds.size()));
      result = model.rank_with_spam_seeds(crawl.spam_seeds, top_k).ranking;
    } else {
      result = model.rank_baseline();
    }
    solve_stage.stop();
    names = corpus.source_hosts;
  } else {
    std::cerr << "unknown --algo '" << algo << "'\n";
    return 2;
  }
  const std::vector<f64>& scores = result.scores;

  const auto ranks = metrics::ranks_by_score(scores);
  std::vector<std::pair<u32, NodeId>> order;
  for (NodeId i = 0; i < scores.size(); ++i) order.emplace_back(ranks[i], i);
  std::sort(order.begin(), order.end());
  for (u32 i = 0; i < top && i < order.size(); ++i) {
    const NodeId id = order[i].second;
    t.add_row({std::to_string(i + 1), names[id],
               TextTable::sci(scores[id], 3)});
  }
  std::cout << t.render("Top " + std::to_string(top) + " by " + algo);

  if (tracing) {
    obs::SolverRun run;
    run.solver = algo;
    run.iterations = result.iterations;
    run.residual = result.residual;
    run.converged = result.converged;
    run.seconds = result.seconds;
    run.trace = result.trace;
    report.set_meta("command", std::string("rank"));
    report.set_meta("in", in_dir);
    report.set_meta("algo", algo);
    report.set_meta("alpha", alpha);
    report.set_meta("nodes", static_cast<u64>(scores.size()));
    report.set_solver(run);
    report.set_trace(trace);
    report.capture_metrics();
    report.write(trace_path);
    std::cout << "wrote run report to " << trace_path << '\n';
  }
  if (!trace_out.empty()) {
    root_span.finish();  // close before draining so the root is included
    const auto spans = obs::collect_spans();
    obs::write_perfetto_trace(trace_out, spans);
    std::cout << "wrote " << spans.size() << " spans to " << trace_out
              << '\n';
  }
  return 0;
}

int cmd_stats(const Args& args) {
  obs::set_metrics_enabled(true);
  const std::string in_dir = args.require("in");
  const f64 alpha = args.get_f64("alpha", 0.85);

  const auto crawl = load_crawl(in_dir);
  const auto& corpus = crawl.corpus;
  const core::SourceMap map(corpus.page_source);
  core::SrsrConfig cfg;
  cfg.alpha = alpha;
  cfg.throttle_mode = core::ThrottleMode::kTeleportDiscard;
  obs::IterationTrace trace;
  cfg.convergence.trace = &trace;
  const core::SpamResilientSourceRank model(corpus.pages, map, cfg);

  rank::RankResult result;
  if (!crawl.spam_seeds.empty()) {
    const u32 top_k = static_cast<u32>(
        args.get_u64("topk", 2 * crawl.spam_seeds.size()));
    result = model.rank_with_spam_seeds(crawl.spam_seeds, top_k).ranking;
  } else {
    result = model.rank_baseline();
  }

  if (args.has("prometheus")) {
    // Text exposition format 0.0.4 — scrapeable by a Prometheus server
    // and validated in CI by tools/lint/check_expfmt.py.
    std::cout << obs::prometheus_text();
    return 0;
  }
  if (args.has("json")) {
    std::cout << obs::MetricsRegistry::instance().snapshot_json() << '\n';
    return 0;
  }
  TextTable summary({"Field", "Value"});
  summary.add_row({"sources", TextTable::num(corpus.num_sources())});
  summary.add_row({"pages", TextTable::num(corpus.num_pages())});
  summary.add_row({"iterations", TextTable::num(result.iterations)});
  summary.add_row({"residual", TextTable::sci(result.residual, 3)});
  summary.add_row({"converged", result.converged ? "yes" : "no"});
  summary.add_row({"seconds", TextTable::fixed(result.seconds, 4)});
  summary.add_row(
      {"iterations/s", TextTable::fixed(result.iterations_per_second(), 1)});
  summary.add_row(
      {"first residual", TextTable::sci(result.trace.first_residual, 3)});
  summary.add_row(
      {"residual decay rate", TextTable::fixed(result.trace.decay_rate, 4)});
  std::cout << summary.render("SRSR run summary (" + in_dir + ")");
  std::cout << '\n'
            << obs::MetricsRegistry::instance().snapshot_table().render(
                   "Metrics registry snapshot");
  return 0;
}

int cmd_sweep(const Args& args) {
  const std::string in_dir = args.require("in");
  const f64 alpha = args.get_f64("alpha", 0.85);
  const u32 configs =
      static_cast<u32>(std::max<u64>(1, args.get_u64("configs", 5)));
  const std::string mode_name = args.get("mode", "discard");
  SRSR_CHECK(mode_name == "absorb" || mode_name == "discard",
             "--mode must be absorb or discard");
  const std::string trace_out = args.get("trace-out", "");
  SRSR_CHECK(!args.has("trace-out") || !trace_out.empty(),
             "--trace-out needs a file path");
  if (!trace_out.empty()) obs::set_tracing_enabled(true);
  obs::Span root_span("cli.sweep");

  const auto crawl = load_crawl(in_dir);
  const auto& corpus = crawl.corpus;
  const core::SourceMap map(corpus.page_source);
  core::SrsrConfig cfg;
  cfg.alpha = alpha;
  cfg.throttle_mode = mode_name == "absorb"
                          ? core::ThrottleMode::kSelfAbsorb
                          : core::ThrottleMode::kTeleportDiscard;

  WallTimer build_timer;
  const core::SpamResilientSourceRank model(corpus.pages, map, cfg);
  const f64 build_seconds = build_timer.seconds();

  // Ramp target: the spam-proximate sources when labels exist,
  // otherwise every source.
  std::vector<f64> weight(corpus.num_sources(), 1.0);
  if (!crawl.spam_seeds.empty()) {
    const auto prox = core::spam_proximity(model.source_graph().topology(),
                                           crawl.spam_seeds);
    const u32 top_k = static_cast<u32>(
        args.get_u64("topk", 2 * crawl.spam_seeds.size()));
    weight = core::kappa_top_k(prox.scores, top_k);
  }

  TextTable t({"kappa", "plan+solve s", "iterations", "top host"});
  for (u32 c = 0; c < configs; ++c) {
    const f64 strength =
        configs == 1 ? 1.0 : static_cast<f64>(c) / (configs - 1);
    std::vector<f64> kappa(weight);
    for (f64& k : kappa) k *= strength;
    WallTimer config_timer;
    const auto result = model.rank(kappa);
    NodeId best = 0;
    for (NodeId s = 1; s < corpus.num_sources(); ++s)
      if (result.scores[s] > result.scores[best]) best = s;
    t.add_row({TextTable::fixed(strength, 2),
               TextTable::fixed(config_timer.seconds(), 4),
               TextTable::num(result.iterations),
               corpus.source_hosts[best]});
  }
  std::cout << t.render("Kappa sweep (" + std::to_string(configs) +
                        " configs, mode=" + mode_name + ", model built in " +
                        TextTable::fixed(build_seconds, 3) + "s)");
  if (!trace_out.empty()) {
    root_span.finish();
    const auto spans = obs::collect_spans();
    obs::write_perfetto_trace(trace_out, spans);
    std::cout << "wrote " << spans.size() << " spans to " << trace_out
              << '\n';
  }
  return 0;
}

/// Line-oriented request loop over the serve layer. One request per
/// line on stdin, one (or a few) response lines on stdout — designed
/// to be piped to/from scripts; the cli_test and scripts/ci.sh drive
/// it that way.
int cmd_serve(const Args& args) {
  const std::string in_dir = args.require("in");
  const f64 alpha = args.get_f64("alpha", 0.85);
  const std::string mode_name = args.get("mode", "discard");
  SRSR_CHECK(mode_name == "absorb" || mode_name == "discard",
             "--mode must be absorb or discard");
  if (args.has("metrics")) obs::set_metrics_enabled(true);
  // Tracing is always on in serve: the per-query cost is a few ring
  // writes, and it makes the `tracefile` request useful without a
  // restart. Batch commands stay opt-in via --trace-out.
  obs::set_tracing_enabled(true);

  const auto crawl = load_crawl(in_dir);
  const auto& corpus = crawl.corpus;
  const core::SourceMap map(corpus.page_source);
  const bool dynamic = args.has("dynamic");
  core::SrsrConfig cfg;
  cfg.alpha = alpha;
  cfg.throttle_mode = mode_name == "absorb"
                          ? core::ThrottleMode::kSelfAbsorb
                          : core::ThrottleMode::kTeleportDiscard;

  // Static mode serves through a SpamResilientSourceRank model; dynamic
  // mode through the stream subsystem (graph + always-warm ranker +
  // main-thread staging stream). Exactly one side is engaged.
  std::optional<core::SpamResilientSourceRank> model;
  std::optional<stream::DynamicSourceGraph> dyn_graph;
  std::optional<stream::IncrementalRanker> ranker;
  std::optional<stream::EdgeStream> estream;
  if (dynamic) {
    dyn_graph.emplace(corpus.pages, map, corpus.source_hosts);
    stream::IncrementalConfig icfg;
    icfg.alpha = alpha;
    icfg.mode = cfg.throttle_mode;
    ranker.emplace(*dyn_graph, icfg);
    estream.emplace(dyn_graph->num_pages());
  } else {
    model.emplace(corpus.pages, map, cfg);
  }

  // Standing policy: fully throttle the top-k spam-proximate sources
  // when labels exist (Sec. 6.2), otherwise start unthrottled.
  // `recompute S` rescales this vector by S.
  std::vector<f64> policy(corpus.num_sources(), 0.0);
  std::string policy_name = "unthrottled";
  if (!crawl.spam_seeds.empty()) {
    const u32 top_k = static_cast<u32>(
        args.get_u64("topk", 2 * crawl.spam_seeds.size()));
    const auto prox =
        dynamic ? core::spam_proximity(dyn_graph->topology(),
                                       crawl.spam_seeds)
                : core::spam_proximity(model->source_graph().topology(),
                                       crawl.spam_seeds);
    policy = core::kappa_top_k(prox.scores, top_k);
    policy_name = "top_" + std::to_string(top_k) + "_proximity";
  }

  serve::SnapshotStore store;
  // Fixed baseline (kappa = 0, cold solve): what compare() diffs
  // against. In dynamic mode the ranker's construction solve IS the
  // kappa = 0 sigma.
  std::shared_ptr<const serve::RankSnapshot> baseline;
  if (dynamic) {
    serve::SnapshotMeta bm;
    bm.kappa_policy = "baseline";
    bm.solver = "push";
    bm.converged = ranker->last_outcome().converged;
    baseline = std::make_shared<const serve::RankSnapshot>(
        ranker->sigma(), dyn_graph->hosts(), std::move(bm));
  } else {
    serve::SnapshotBuild baseline_build;
    baseline_build.policy = "baseline";
    const std::vector<f64> zeros(corpus.num_sources(), 0.0);
    baseline = std::make_shared<const serve::RankSnapshot>(
        serve::make_snapshot(*model, zeros, corpus.source_hosts,
                             baseline_build));
  }
  // Watchdogs: every query's latency feeds the SLO monitor; every
  // publish is drift-checked against its predecessor (the first one
  // only establishes the baseline).
  serve::SloMonitor slo;
  serve::DriftMonitor drift;
  const serve::QueryEngine engine(store, baseline, &slo);
  serve::RecomputeConfig recompute_cfg;
  recompute_cfg.slo = &slo;
  recompute_cfg.drift = &drift;
  std::optional<serve::RecomputePipeline> pipeline;
  if (dynamic)
    pipeline.emplace(*ranker, store, recompute_cfg);
  else
    pipeline.emplace(*model, corpus.source_hosts, store, recompute_cfg);
  pipeline->submit(policy, policy_name);
  pipeline->drain();
  {
    const auto st = pipeline->stats();
    SRSR_CHECK(st.published == 1, "serve: initial snapshot failed: ",
               st.last_error);
  }
  std::cout << "serve ready: " << corpus.num_sources() << " sources, epoch "
            << store.epoch() << ", policy " << policy_name
            << (dynamic ? ", dynamic" : "") << '\n'
            << std::flush;

  // Re-solves triggered by a request are awaited (drain) before the
  // response line, so a scripted session reads its own effects.
  auto report_publish = [&](u64 before_published, u64 before_failed) {
    const auto st = pipeline->stats();
    if (st.published > before_published) {
      const auto snap = store.current();
      std::cout << "published epoch " << st.last_epoch << " ("
                << snap->meta().iterations << " iterations, "
                << (snap->meta().converged ? "converged" : "NOT converged")
                << (snap->meta().warm_started ? ", warm" : ", cold")
                << ")\n";
    } else if (st.failed > before_failed) {
      std::cout << "err recompute failed: " << st.last_error << '\n';
    } else {
      std::cout << "err recompute produced nothing\n";
    }
  };

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string req;
    in >> req;
    if (req.empty()) continue;
    if (req == "quit" || req == "exit") break;

    if (req == "top") {
      u64 k = 10;
      in >> k;
      for (const auto& e : engine.top_k(static_cast<u32>(k)))
        std::cout << e.rank << ' ' << e.host << ' '
                  << TextTable::sci(e.score, 3) << '\n';
    } else if (req == "score" || req == "rank" || req == "compare") {
      std::string host;
      in >> host;
      const auto id = store.current()->id_of(host);
      if (!id) {
        std::cout << "err unknown host '" << host << "'\n";
      } else if (req == "score") {
        std::cout << host << ' ' << TextTable::sci(*engine.score(*id), 3)
                  << '\n';
      } else if (req == "rank") {
        std::cout << host << " rank " << *engine.rank_of(*id) << " of "
                  << store.current()->num_sources() << '\n';
      } else if (dynamic && store.current()->num_sources() !=
                                baseline->num_sources()) {
        // The kappa = 0 baseline predates this batch's source growth;
        // a cross-size diff has no aligned id space.
        std::cout << "err compare unavailable: sources grew from "
                  << baseline->num_sources() << " to "
                  << store.current()->num_sources()
                  << " since the baseline\n";
      } else {
        const auto c = *engine.compare(*id);
        std::cout << host << " baseline " << TextTable::sci(c.baseline_score, 3)
                  << " (#" << c.baseline_rank << ") -> srsr "
                  << TextTable::sci(c.score, 3) << " (#" << c.rank
                  << "), delta " << TextTable::sci(c.delta, 3)
                  << ", rank_change " << c.rank_change << '\n';
      }
    } else if (req == "recompute") {
      std::string strength_text;
      in >> strength_text;
      const f64 strength =
          strength_text.empty() ? 1.0 : parse_f64(strength_text);
      std::vector<f64> kappa(policy);
      // Sources appended by stream updates are outside the standing
      // policy: they ride along unthrottled.
      if (dynamic) kappa.resize(store.current()->num_sources(), 0.0);
      for (f64& k : kappa) k *= strength;
      const auto before = pipeline->stats();
      pipeline->submit(std::move(kappa),
                       policy_name + "*" + TextTable::fixed(strength, 2));
      pipeline->drain();
      report_publish(before.published, before.failed);
    } else if (req == "labels") {
      std::vector<NodeId> seeds;
      std::string host;
      bool ok = true;
      while (in >> host) {
        const auto id = store.current()->id_of(host);
        if (!id) {
          std::cout << "err unknown host '" << host << "'\n";
          ok = false;
          break;
        }
        seeds.push_back(*id);
      }
      if (!ok) continue;
      if (seeds.empty()) {
        std::cout << "err labels needs at least one host\n";
        continue;
      }
      const auto before = pipeline->stats();
      const u32 top_k =
          static_cast<u32>(args.get_u64("topk", 2 * seeds.size()));
      pipeline->submit_spam_labels(std::move(seeds), top_k);
      pipeline->drain();
      report_publish(before.published, before.failed);
    } else if (req == "info") {
      const auto snap = store.current();
      const auto& m = snap->meta();
      std::cout << "epoch " << m.epoch << ", sources "
                << snap->num_sources() << ", policy " << m.kappa_policy
                << ", kappa_mass " << TextTable::fixed(m.kappa_mass, 2)
                << ", solver " << m.solver << ", iterations "
                << m.iterations << ", checksum_ok "
                << (snap->verify_checksum() ? "yes" : "no") << '\n';
      const auto s = slo.evaluate();
      std::cout << "slo p50 " << TextTable::sci(s.p50, 3) << "s, p99 "
                << TextTable::sci(s.p99, 3) << "s, staleness "
                << TextTable::fixed(s.staleness_seconds, 1) << "s, queries "
                << s.total_queries << ", breaches "
                << s.p50_breaches + s.p99_breaches + s.staleness_breaches
                << ", healthy " << (s.healthy ? "yes" : "no") << '\n';
      const auto d = drift.last_report();
      std::cout << "drift epochs " << d.from_epoch << "->" << d.to_epoch
                << ", l1 " << TextTable::sci(d.l1_delta, 3) << ", churn "
                << TextTable::fixed(d.topk_churn, 2) << ", outliers "
                << d.outliers << ", anomalies " << drift.anomalies()
                << ", anomalous " << (d.anomalous ? "yes" : "no") << '\n';
      if (dynamic) {
        const auto st = pipeline->stats();
        std::cout << "stream pages " << estream->num_pages() << ", sources "
                  << snap->num_sources() << ", last_path "
                  << (st.last_path.empty() ? "none" : st.last_path)
                  << ", last_pushes " << st.last_pushes
                  << ", last_dirty_rows " << st.last_dirty_rows
                  << ", mutations " << st.mutations_applied << '\n';
      }
    } else if (req == "metrics") {
      // Prometheus text exposition of the whole registry (empty unless
      // --metrics enabled recording).
      std::cout << obs::prometheus_text();
    } else if (req == "tracefile") {
      std::string path;
      in >> path;
      if (path.empty()) {
        std::cout << "err tracefile needs a path\n";
        continue;
      }
      const auto spans = obs::collect_spans();
      obs::write_perfetto_trace(path, spans);
      std::cout << "wrote " << spans.size() << " spans to " << path << '\n';
    } else if (req == "stats") {
      const auto st = pipeline->stats();
      std::cout << "published " << st.published << ", failed " << st.failed
                << ", coalesced " << st.coalesced << ", epoch "
                << st.last_epoch << ", queue_depth " << st.queue_depth
                << ", coalesced_batches " << st.coalesced_batches
                << ", mutations " << st.mutations_applied << ", last_path "
                << (st.last_path.empty() ? "none" : st.last_path)
                << ", last_pushes " << st.last_pushes << ", last_dirty_rows "
                << st.last_dirty_rows << '\n';
    } else if (req == "update") {
      if (!dynamic) {
        std::cout << "err update needs --dynamic\n";
        std::cout << std::flush;
        continue;
      }
      std::string sub;
      in >> sub;
      try {
        if (sub == "link" || sub == "unlink") {
          u64 u = 0, v = 0;
          if (!(in >> u >> v)) {
            std::cout << "err update " << sub << " needs U V page ids\n";
          } else {
            if (sub == "link")
              estream->insert_link(static_cast<NodeId>(u),
                                   static_cast<NodeId>(v));
            else
              estream->erase_link(static_cast<NodeId>(u),
                                  static_cast<NodeId>(v));
            std::cout << "staged " << estream->pending() << " mutation(s)\n";
          }
        } else if (sub == "page") {
          std::string host;
          in >> host;
          if (host.empty()) {
            std::cout << "err update page needs a host name\n";
          } else {
            const NodeId id = estream->add_page(host);
            std::cout << "staged page " << id << " host " << host << " ("
                      << estream->pending() << " pending)\n";
          }
        } else if (sub == "status") {
          const auto st = pipeline->stats();
          std::cout << "pending " << estream->pending() << ", pages "
                    << estream->num_pages() << ", sources "
                    << store.current()->num_sources() << ", queue_depth "
                    << st.queue_depth << '\n';
        } else if (sub == "commit") {
          auto batch = estream->commit();
          const std::size_t mutations = batch.size();
          const auto before = pipeline->stats();
          pipeline->submit_update(std::move(batch));
          pipeline->drain();
          const auto st = pipeline->stats();
          if (st.published > before.published) {
            std::cout << "published epoch " << st.last_epoch << " ("
                      << st.last_path << ", " << st.last_pushes
                      << " pushes, " << st.last_dirty_rows << " dirty rows, "
                      << (store.current()->meta().converged
                              ? "converged"
                              : "NOT converged")
                      << ", " << mutations << " mutations)\n";
          } else if (st.failed > before.failed) {
            std::cout << "err update failed: " << st.last_error << '\n';
          } else {
            std::cout << "err update produced nothing\n";
          }
        } else {
          std::cout << "err update supports link|unlink|page|commit|status\n";
        }
      } catch (const Error& e) {
        // Out-of-range page ids and the like: staging rejected, the
        // stream stays usable.
        std::cout << "err " << e.what() << '\n';
      }
    } else {
      std::cout << "err unknown request '" << req << "'\n";
    }
    std::cout << std::flush;
  }

  pipeline->stop();
  std::cout << "bye\n";
  return 0;
}

int cmd_audit(const Args& args) {
  const auto crawl = load_crawl(args.require("in"));
  const auto& corpus = crawl.corpus;
  SRSR_CHECK(!crawl.spam_seeds.empty(),
             "audit needs labels.txt with at least one known host");
  const u32 top_k =
      static_cast<u32>(args.get_u64("topk", 2 * crawl.spam_seeds.size()));

  const core::SourceMap map(corpus.page_source);
  const core::SourceGraph sg(corpus.pages, map);
  const auto prox = core::spam_proximity(sg.topology(), crawl.spam_seeds);
  const auto kappa = core::kappa_top_k(prox.scores, top_k);

  std::vector<NodeId> order(corpus.num_sources());
  for (NodeId s = 0; s < corpus.num_sources(); ++s) order[s] = s;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return prox.scores[a] > prox.scores[b];
  });
  TextTable t({"#", "Host", "Proximity", "Kappa", "Labeled"});
  std::vector<bool> seeded(corpus.num_sources(), false);
  for (const NodeId s : crawl.spam_seeds) seeded[s] = true;
  for (u32 i = 0; i < top_k && i < order.size(); ++i) {
    const NodeId s = order[i];
    t.add_row({std::to_string(i + 1), corpus.source_hosts[s],
               TextTable::sci(prox.scores[s], 3),
               TextTable::fixed(kappa[s], 1), seeded[s] ? "seed" : ""});
  }
  std::cout << t.render("Spam-proximity audit (top " +
                        std::to_string(top_k) + ")");
  return 0;
}

int cmd_attack(const Args& args) {
  const auto crawl = load_crawl(args.require("in"));
  const auto& corpus = crawl.corpus;
  const NodeId target_source =
      static_cast<NodeId>(args.get_u64("target-source", 0));
  SRSR_CHECK(target_source < corpus.num_sources(),
             "target source out of range");
  const u32 pages = static_cast<u32>(args.get_u64("pages", 100));
  const NodeId target_page = corpus.source_first_page[target_source];

  const auto clean_pr = rank::pagerank(corpus.pages);
  const core::SourceMap map(corpus.page_source);
  const core::SpamResilientSourceRank model(corpus.pages, map);
  const auto clean_sr = model.rank_baseline();

  graph::WebCorpus attacked =
      args.has("cross")
          ? spam::add_cross_source_farm(
                corpus, target_page,
                static_cast<NodeId>(args.get_u64("cross", 0)), pages)
          : spam::add_intra_source_farm(corpus, target_page, pages);
  const auto pr2 = rank::pagerank(attacked.pages);
  const core::SourceMap map2(attacked.page_source);
  const core::SpamResilientSourceRank model2(attacked.pages, map2);
  const auto sr2 = model2.rank_baseline();

  TextTable t({"Metric", "Before", "After", "Change"});
  const f64 prb = metrics::percentile_of(clean_pr.scores, target_page);
  const f64 pra = metrics::percentile_of(pr2.scores, target_page);
  const f64 srb = metrics::percentile_of(clean_sr.scores, target_source);
  const f64 sra = metrics::percentile_of(sr2.scores, target_source);
  t.add_row({"PageRank percentile (target page)", TextTable::fixed(prb, 1),
             TextTable::fixed(pra, 1), TextTable::fixed(pra - prb, 1)});
  t.add_row({"SRSR percentile (target source)", TextTable::fixed(srb, 1),
             TextTable::fixed(sra, 1), TextTable::fixed(sra - srb, 1)});
  std::cout << t.render("Link farm: " + std::to_string(pages) +
                        " pages against " +
                        corpus.source_hosts[target_source]);
  return 0;
}

void usage() {
  std::cout <<
      "srsr — Spam-Resilient SourceRank toolkit\n"
      "usage: srsr_cli <command> [options]\n\n"
      "commands:\n"
      "  generate --out DIR [--sources N] [--spam N] [--seed S] [--terms]\n"
      "  rank     --in DIR [--algo pagerank|sourcerank|srsr] [--top K]\n"
      "           [--alpha A] [--topk K] [--trace FILE] [--trace-out FILE]\n"
      "  audit    --in DIR [--topk K]     (needs labels.txt)\n"
      "  attack   --in DIR [--target-source S] [--pages N] [--cross C]\n"
      "  stats    --in DIR [--alpha A] [--topk K] [--json] [--prometheus]\n"
      "  sweep    --in DIR [--configs N] [--alpha A] [--topk K]\n"
      "           [--mode absorb|discard] [--trace-out FILE]\n"
      "  serve    --in DIR [--alpha A] [--topk K] [--mode absorb|discard]\n"
      "           [--dynamic] [--metrics]\n"
      "           (requests on stdin: top K | score HOST |\n"
      "           rank HOST | compare HOST | recompute S | labels HOST... |\n"
      "           info | stats | metrics | tracefile FILE | quit)\n"
      "\n"
      "--dynamic serves from the stream subsystem: page-level edge\n"
      "mutations are staged with `update link U V`, `update unlink U V`,\n"
      "and `update page HOST`, then `update commit` re-derives the dirty\n"
      "source rows and republishes sigma through a warm incremental push\n"
      "(no full re-solve for localized edits); `update status` shows the\n"
      "staging and publish state.\n"
      "--trace FILE writes a RunReport JSON document; --trace-out FILE\n"
      "writes a Chrome/Perfetto trace-event JSON of the run's spans\n"
      "(open at https://ui.perfetto.dev).\n";
}

/// A subcommand and the options it reads (Args rejects the rest).
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<std::string_view> options;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"generate", cmd_generate, {"out", "sources", "spam", "seed", "terms"}},
      {"rank", cmd_rank,
       {"in", "algo", "top", "alpha", "topk", "trace", "trace-out"}},
      {"audit", cmd_audit, {"in", "topk"}},
      {"attack", cmd_attack, {"in", "target-source", "pages", "cross"}},
      {"stats", cmd_stats, {"in", "alpha", "topk", "json", "prometheus"}},
      {"sweep", cmd_sweep,
       {"in", "configs", "alpha", "topk", "mode", "trace-out"}},
      {"serve", cmd_serve,
       {"in", "alpha", "topk", "mode", "dynamic", "metrics"}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string_view name = argv[1];
  const auto& table = commands();
  const auto cmd =
      std::find_if(table.begin(), table.end(),
                   [&](const Command& c) { return c.name == name; });
  if (cmd == table.end()) {
    usage();
    return 2;
  }
  try {
    const Args args(argc, argv, cmd->options);
    return cmd->run(args);
  } catch (const srsr::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
