#include "suite.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "bench/common.hpp"
#include "obs/expfmt.hpp"
#include "obs/json.hpp"
#include "rank/solvers.hpp"

namespace srsr::suite {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every metric the suite measures. BENCHMARK.json splits them into end to
// end and per layer; bench/suite/run.py refuses a run whose metrics or
// units disagree with it.
constexpr MetricSpec kMetrics[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"crawl_start_s", "s"},
    {"cold_publish_s", "s"},
    {"edit_publish_ms", "ms"},
    {"edit_publish_p90_ms", "ms"},
    {"bulk_publish_ms", "ms"},
    {"kappa_publish_ms", "ms"},
    {"query_p50_us", "us"},
    {"query_max_rate_qps", "qps"},
    {"graph.io.parse_s", "s"},
    {"graph.io.ns_per_link", "ns"},
    {"core.source_map_s", "s"},
    {"core.source_graph_s", "s"},
    {"core.base_matrix_s", "s"},
    {"rank.transpose_s", "s"},
    {"core.throttle_plan_s", "s"},
    {"core.spam_proximity_s", "s"},
    {"core.spam_proximity.iterations", "count"},
    {"rank.power.iterations", "count"},
    {"rank.power.solve_s", "s"},
    {"rank.pull.ns_per_edge", "ns"},
    {"rank.pull.bytes_per_iter", "bytes"},
    {"stream.commit_us", "us"},
    {"stream.apply_ms", "ms"},
    {"stream.dirty_rows", "count"},
    {"rank.push.pushes", "count"},
    {"rank.push.touched_rows", "count"},
    {"rank.push.ns_per_push", "ns"},
    {"stream.seed_mass", "L1"},
    {"stream.sigma_ms", "ms"},
    {"stream.path.delta", "count"},
    {"stream.path.full", "count"},
    {"stream.path.fallback", "count"},
    {"serve.snapshot_build_ms", "ms"},
    {"serve.publish_us", "us"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.pipeline_overhead_ms", "ms"},
    {"serve.published", "count"},
    {"serve.failed", "count"},
    {"serve.coalesced", "count"},
    {"serve.query.score.p50_us", "us"},
    {"serve.query.score.p99_us", "us"},
    {"serve.query.rank_of.p50_us", "us"},
    {"serve.query.rank_of.p99_us", "us"},
    {"serve.query.top_k.p50_us", "us"},
    {"serve.query.top_k.p99_us", "us"},
    {"serve.query.compare.p50_us", "us"},
    {"serve.query.compare.p99_us", "us"},
    {"serve.query.p99_us.r200k", "us"},
    {"serve.query.p99_us.r400k", "us"},
    {"serve.query.p99_us.r800k", "us"},
    {"serve.query.p99_us.r1600k", "us"},
    {"serve.query.gen_lag_ms.r200k", "ms"},
    {"serve.query.gen_lag_ms.r400k", "ms"},
    {"serve.query.gen_lag_ms.r800k", "ms"},
    {"serve.query.gen_lag_ms.r1600k", "ms"},
    {"serve.checksum_failures", "count"},
    {"trace_overhead_pct", "%"},
};

/// JSON number for a metric value. A failed operation is +inf in the
/// samples; the summary line must stay parseable, so it is clamped.
std::string metric_number(f64 v) {
  if (std::isnan(v)) v = std::numeric_limits<f64>::max();
  if (std::isinf(v))
    v = v > 0 ? std::numeric_limits<f64>::max()
              : std::numeric_limits<f64>::lowest();
  return obs::json::number(v);
}

/// The metrics that were set, in table order.
std::string metrics_object(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const MetricSpec& spec : kMetrics) {
    const auto it = metrics.find(spec.name);
    if (it == metrics.end()) continue;
    if (out.size() > 1) out += ", ";
    out += obs::json::quote(spec.name) +
           ": {\"value\": " + metric_number(it->second.value) +
           ", \"unit\": " + obs::json::quote(it->second.unit) + "}";
  }
  return out + "}";
}

/// Highest of p99.9 / p99 / p90 with at least ten samples beyond it; 0
/// when there are fewer than 100 samples.
f64 tail_quantile(std::size_t n) {
  for (const f64 q : {0.999, 0.99, 0.9})
    if (static_cast<f64>(n) * (1.0 - q) >= 10.0) return q;
  return 0.0;
}

/// Total length of the union of [lo, hi) intervals.
u64 union_length(std::vector<std::pair<u64, u64>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  u64 total = 0, lo = 0, hi = 0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (!open || a > hi) {
      if (open) total += hi - lo;
      lo = a;
      hi = b;
      open = true;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (open) total += hi - lo;
  return total;
}

std::vector<f64> zipf_weights(u32 n) {
  std::vector<f64> w(n);
  for (u32 r = 0; r < n; ++r) w[r] = 1.0 / static_cast<f64>(r + 1);
  return w;
}

}  // namespace

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

f64 seconds_since(u64 start_ns) {
  return static_cast<f64>(now_ns() - start_ns) / 1e9;
}

f64 peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<f64>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Samples::add_failure() {
  values_.push_back(std::numeric_limits<f64>::infinity());
}

f64 Samples::quantile(f64 q) const {
  if (values_.empty()) return 0.0;
  std::vector<f64> v = values_;
  std::sort(v.begin(), v.end());
  const f64 pos = q * static_cast<f64>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (lo == hi || std::isinf(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<f64>(lo));
}

f64 quantile_ns(std::vector<u32> values, f64 q) {
  if (values.empty()) return 0.0;
  const std::size_t k = static_cast<std::size_t>(
      q * static_cast<f64>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return static_cast<f64>(values[k]);
}

bool Result::correct() const { return failed == 0; }

void Result::set(const std::string& name, f64 value) {
  for (const MetricSpec& m : kMetrics)
    if (name == m.name) {
      metrics_[name] = {value, m.unit};
      return;
    }
  throw Error("srsr_bench: unknown metric " + name);
}

void Result::add_timing(const std::string& name, const std::string& unit,
                        const Samples& samples) {
  Timing t;
  t.name = name;
  t.unit = unit;
  t.n = samples.size();
  t.p50 = samples.median();
  t.tail_q = tail_quantile(t.n);
  t.tail = t.tail_q > 0.0 ? samples.quantile(t.tail_q) : 0.0;
  if (samples.size() <= kListedSamples) t.values = samples.values();
  timings_.push_back(std::move(t));
}

void Result::add_gate(const std::string& name, f64 value, f64 bound) {
  const bool pass = std::isfinite(value) && value <= bound;
  if (!pass) ++failed;
  gates_.push_back({name, value, bound, pass});
}

void Result::note(const std::string& key, f64 value) {
  notes_.emplace_back(key, obs::json::number(value));
}

void Result::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, obs::json::quote(value));
}

std::string Result::detail_json(const Options& o) const {
  std::ostringstream out;
  out << "{\n  \"schema\": \"srsr-bench-suite/1\",\n"
      << "  \"workload\": " << obs::json::quote(o.workload) << ",\n"
      << "  \"seed\": " << o.seed << ",\n"
      << "  \"seconds\": " << obs::json::number(o.seconds) << ",\n"
      << "  \"traced\": " << obs::json::boolean(o.traced) << ",\n"
      << "  \"smoke\": " << obs::json::boolean(o.smoke) << ",\n"
      << "  \"omp_num_threads\": " << kPinnedThreads << ",\n"
      << "  \"correct\": " << obs::json::boolean(correct()) << ",\n"
      << "  \"attempted\": " << attempted << ",\n"
      << "  \"failed\": " << failed << ",\n";
  out << "  \"notes\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i)
    out << (i ? ", " : "") << obs::json::quote(notes_[i].first) << ": "
        << notes_[i].second;
  out << "},\n  \"metrics\": " << metrics_object(metrics_) << ",\n";
  out << "  \"timings\": [";
  for (std::size_t i = 0; i < timings_.size(); ++i) {
    const Timing& t = timings_[i];
    out << (i ? ",\n    " : "\n    ") << "{\"name\": " << obs::json::quote(t.name)
        << ", \"unit\": " << obs::json::quote(t.unit) << ", \"n\": " << t.n
        << ", \"p50\": " << metric_number(t.p50);
    if (t.tail_q > 0.0)
      out << ", \"tail_q\": " << obs::json::number(t.tail_q)
          << ", \"tail\": " << metric_number(t.tail);
    if (!t.values.empty()) {
      out << ", \"values\": [";
      for (std::size_t k = 0; k < t.values.size(); ++k)
        out << (k ? ", " : "") << metric_number(t.values[k]);
      out << "]";
    }
    out << "}";
  }
  out << "],\n  \"gates\": [";
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    out << (i ? ",\n    " : "\n    ") << "{\"name\": " << obs::json::quote(g.name)
        << ", \"value\": " << metric_number(g.value)
        << ", \"bound\": " << obs::json::number(g.bound)
        << ", \"pass\": " << obs::json::boolean(g.pass) << "}";
  }
  out << "]";
  if (!self_times_json_.empty())
    out << ",\n  \"self_times\": " << self_times_json_;
  out << "\n}\n";
  return out.str();
}

std::string Result::summary_line() const {
  return "{\"correct\": " + obs::json::boolean(correct()) +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics_object(metrics_) + "}";
}

void set_telemetry(bool on) {
  obs::set_tracing_enabled(on);
  obs::set_metrics_enabled(on);
}

namespace {

graph::WebGenConfig corpus_config(CorpusSize size, const Options& options) {
  graph::WebGenConfig cfg =
      graph::scaled_dataset_config(graph::ScaledDataset::kWB2001S);
  if (size == CorpusSize::kWB2001M) cfg.num_sources = 100000;
  if (options.smoke) cfg.num_sources = 2000;
  cfg.num_spam_sources = cfg.num_sources / 50;
  return cfg;
}

std::string corpus_name(CorpusSize size) {
  return size == CorpusSize::kWB2001S ? "WB2001S" : "WB2001M";
}

}  // namespace

graph::WebCorpus make_corpus(CorpusSize size, const Options& options) {
  return graph::generate_web_corpus(corpus_config(size, options));
}

void note_corpus(CorpusSize size, const Options& options,
                 const graph::WebCorpus& corpus, Result& result) {
  result.note("corpus", corpus_name(size) + (options.smoke ? "-smoke" : ""));
  result.note("corpus.sources", static_cast<f64>(corpus.num_sources()));
  result.note("corpus.pages", static_cast<f64>(corpus.num_pages()));
  result.note("corpus.links", static_cast<f64>(corpus.pages.num_edges()));
}

Policy paper_policy(const graph::WebCorpus& corpus, u64 seed) {
  const std::vector<NodeId> spam = corpus.spam_sources();
  Policy p;
  p.seeds = bench::sample_spam_seeds(spam, 0.1, seed);
  p.spam = static_cast<u32>(spam.size());
  p.top_k = 2 * p.spam;
  p.name = "top_" + std::to_string(p.top_k) + "_proximity";
  return p;
}

f64 paper_error_bound(NodeId n) {
  const rank::Convergence c = bench::paper_convergence();
  return std::sqrt(static_cast<f64>(n)) * c.tolerance / (1.0 - bench::kAlpha);
}

rank::RankResult tight_solve(const core::SpamResilientSourceRank& model,
                             std::span<const f64> kappa) {
  rank::SolverConfig sc;
  sc.alpha = model.config().alpha;
  sc.convergence.norm = rank::Norm::kL1;
  sc.convergence.tolerance = 1e-14;
  sc.convergence.max_iterations = 100000;
  return rank::power_solve(model.throttled_view(kappa), sc);
}

f64 l1_distance(std::span<const f64> a, std::span<const f64> b) {
  if (a.size() != b.size()) return std::numeric_limits<f64>::infinity();
  f64 d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::abs(a[i] - b[i]);
  return d;
}

QueryMix::QueryMix(u32 num_hosts, u64 seed)
    : permutation_(num_hosts), zipf_(zipf_weights(num_hosts)) {
  for (u32 i = 0; i < num_hosts; ++i) permutation_[i] = i;
  Pcg32 rng(seed, 7);
  shuffle(rng, permutation_);
}

std::vector<u32> QueryMix::draw(std::size_t n, Pcg32& rng) const {
  std::vector<u32> out(n);
  for (u32& q : out) {
    const u32 roll = rng.next_below(10);
    const u32 kind = roll < 4 ? 0 : roll < 7 ? 1 : roll < 9 ? 2 : 3;
    q = (kind << 30) | permutation_[zipf_.sample(rng)];
  }
  return out;
}

bool run_query(const serve::QueryEngine& engine,
               const std::vector<std::string>& hosts, u32 query) {
  const std::string& host = hosts[QueryMix::host(query)];
  switch (QueryMix::kind(query)) {
    case QueryKind::kScore:
      return engine.score(host).has_value();
    case QueryKind::kRankOf:
      return engine.rank_of(host).has_value();
    case QueryKind::kTopK:
      return engine.top_k(10).size() == std::min<std::size_t>(10, hosts.size());
    case QueryKind::kCompare:
      return engine.compare(host).has_value();
  }
  return false;
}

std::map<std::string, SpanStats> span_stats(
    const std::vector<obs::SpanRecord>& spans) {
  std::unordered_map<u64, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].span_id] = i;
  std::vector<std::vector<std::pair<u64, u64>>> children(spans.size());
  for (const obs::SpanRecord& s : spans) {
    const auto it = by_id.find(s.parent_id);
    if (s.parent_id == 0 || it == by_id.end()) continue;
    const obs::SpanRecord& p = spans[it->second];
    const u64 lo = std::max(s.start_ns, p.start_ns);
    const u64 hi = std::min(s.start_ns + s.duration_ns,
                            p.start_ns + p.duration_ns);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& s = spans[i];
    const u64 covered = union_length(std::move(children[i]));
    SpanStats& st = out[s.name];
    st.duration_s.add(static_cast<f64>(s.duration_ns) / 1e9);
    st.self_s.add(static_cast<f64>(s.duration_ns - covered) / 1e9);
    st.self_total_s += static_cast<f64>(s.duration_ns - covered) / 1e9;
  }
  return out;
}

HandOff hand_offs(const std::vector<obs::SpanRecord>& spans,
                  const std::string& parent, const std::string& child) {
  std::unordered_map<u64, const obs::SpanRecord*> parents;
  for (const obs::SpanRecord& s : spans)
    if (parent == s.name) parents[s.span_id] = &s;
  HandOff out;
  for (const obs::SpanRecord& s : spans) {
    if (child != s.name) continue;
    const auto it = parents.find(s.parent_id);
    if (it == parents.end() || s.start_ns < it->second->start_ns ||
        s.duration_ns > it->second->duration_ns)
      continue;
    out.wait_s.add(static_cast<f64>(s.start_ns - it->second->start_ns) / 1e9);
    out.outside_s.add(
        static_cast<f64>(it->second->duration_ns - s.duration_ns) / 1e9);
  }
  return out;
}

namespace {

std::string self_times_json(const std::map<std::string, SpanStats>& stats) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, st] : stats) {
    out += (first ? "\n    " : ",\n    ") + obs::json::quote(name) +
           ": {\"count\": " + std::to_string(st.self_s.size()) +
           ", \"self_ms_median\": " + obs::json::number(st.self_s.median() * 1e3) +
           ", \"self_ms_total\": " + obs::json::number(st.self_total_s * 1e3) +
           ", \"duration_ms_median\": " +
           obs::json::number(st.duration_s.median() * 1e3) + "}";
    first = false;
  }
  return out + "}";
}

}  // namespace

std::vector<obs::SpanRecord> collect_trace(const Options& options,
                                           Result& result) {
  std::vector<obs::SpanRecord> spans = obs::collect_spans();
  if (!options.trace_out.empty())
    obs::write_perfetto_trace(options.trace_out, spans);
  result.set_self_times(self_times_json(span_stats(spans)));
  return spans;
}

f64 histogram_mean(const obs::MetricsRegistry::Snapshot& snapshot,
                   const std::string& name) {
  for (const auto& [n, h] : snapshot.histograms)
    if (n == name) return h.count ? h.sum / static_cast<f64>(h.count) : 0.0;
  return 0.0;
}

f64 histogram_sum(const obs::MetricsRegistry::Snapshot& snapshot,
                  const std::string& name) {
  for (const auto& [n, h] : snapshot.histograms)
    if (n == name) return h.sum;
  return 0.0;
}

f64 counter_value(const obs::MetricsRegistry::Snapshot& snapshot,
                  const std::string& name) {
  for (const auto& [n, v] : snapshot.counters)
    if (n == name) return static_cast<f64>(v);
  return 0.0;
}

void report_static_layers(const obs::MetricsRegistry::Snapshot& snapshot,
                          const std::map<std::string, SpanStats>& spans,
                          NodeId sources, u64 entries, Result& result) {
  result.set("core.source_graph_s",
             histogram_mean(snapshot, "srsr.core.source_graph_build.seconds"));
  result.set("core.base_matrix_s",
             histogram_mean(snapshot, "srsr.core.base_matrix_build.seconds"));
  result.set("rank.transpose_s",
             histogram_mean(snapshot, "srsr.rank.transpose.seconds"));
  result.set("core.throttle_plan_s",
             histogram_mean(snapshot, "srsr.core.throttle_plan.seconds"));
  result.set("core.spam_proximity_s",
             histogram_mean(snapshot, "srsr.core.spam_proximity.seconds"));
  const f64 prox_solves = counter_value(snapshot, "srsr.rank.pagerank.solves");
  if (prox_solves > 0)
    result.set("core.spam_proximity.iterations",
               counter_value(snapshot, "srsr.rank.pagerank.iterations") /
                   prox_solves);

  const f64 solves = counter_value(snapshot, "srsr.rank.power.solves");
  const auto solve = spans.find("rank.power.solve");
  if (solves > 0 && solve != spans.end()) {
    const f64 iterations =
        counter_value(snapshot, "srsr.rank.power.iterations") / solves;
    const f64 solve_s = solve->second.duration_s.median();
    result.set("rank.power.iterations", iterations);
    result.set("rank.power.solve_s", solve_s);
    result.set("rank.pull.ns_per_edge",
               solve_s * 1e9 / (iterations * static_cast<f64>(entries)));
    // Computed, not measured: one pull streams the transposed CSR once
    // (8-byte offsets, 4-byte columns, 8-byte weights) and touches five
    // V-length f64 vectors (x, off_scale, diagonal, y, and x gathered).
    result.set("rank.pull.bytes_per_iter",
               12.0 * static_cast<f64>(entries) +
                   40.0 * static_cast<f64>(sources) + 8.0);
  }
  const auto build = spans.find("serve.snapshot_build");
  if (build != spans.end())
    result.set("serve.snapshot_build_ms",
               build->second.self_s.median() * 1e3);
}

f64 overhead_pct(const Samples& traced, const Samples& untraced) {
  if (traced.empty() || untraced.empty()) return 0.0;
  return 100.0 * (traced.median() - untraced.median()) / untraced.median();
}

}  // namespace srsr::suite
