// Shared pieces of the end-to-end benchmark suite (srsr_bench).
//
// One process runs one workload on inputs generated from --seed, measuring
// a fixed number of operations, and writes two things:
//
//   - a detail JSON file (--out): every metric the run measured, with its
//     unit, every timing with its sample count, median and the highest
//     percentile that has at least ten samples beyond it, every
//     correctness gate with its value and bound, and (traced runs) the
//     self time of every span name;
//   - one summary line on stdout, last:
//       {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//     carrying the same metrics. BENCHMARK.json decides which of them are
//     end to end and which per layer; bench/suite/run.py selects them.
//
// Layers are timed from outside: the bench opens its own obs::Span
// around each public call it makes, and a traced run also switches on
// the library's existing spans and StageTimer histograms. Nothing inside
// src/ is instrumented for the suite.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/srsr.hpp"
#include "graph/webgen.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/query.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace srsr::suite {

/// OpenMP team size every run is pinned to. BENCHMARK.json's command
/// sets OMP_NUM_THREADS to this value; unpinned, the recompute worker's
/// team plus the spinning readers oversubscribe the machine and κ
/// publishes slow down by an order of magnitude.
inline constexpr int kPinnedThreads = 2;

struct Options {
  std::string workload;
  u64 seed = 1;
  /// Length of query_churn's open loop, a quarter per rate. The other
  /// workloads run fixed operation counts.
  f64 seconds = 12.0;
  bool traced = false;
  /// 2k-source corpora and a few operations for every workload: a
  /// seconds-long run of every code path and gate.
  bool smoke = false;
  std::string out;        // detail JSON
  std::string trace_out;  // Perfetto trace (traced runs)
  /// Scratch directory inside the checkout (the crawl files).
  std::string work_dir;
};

u64 now_ns();
f64 seconds_since(u64 start_ns);
/// Peak resident set of this process so far (getrusage), in MB.
f64 peak_rss_mb();

/// Samples of one measured quantity. A failed operation is recorded as
/// +inf, so it misses every latency limit and pulls medians up.
class Samples {
 public:
  void add(f64 v) { values_.push_back(v); }
  void add_failure();
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Linear interpolation between closest ranks; 0 when empty.
  f64 quantile(f64 q) const;
  f64 median() const { return quantile(0.5); }
  const std::vector<f64>& values() const { return values_; }

 private:
  std::vector<f64> values_;
};

/// Median and quantile of raw nanosecond latencies (the query readers
/// keep millions of them as u32).
f64 quantile_ns(std::vector<u32> values, f64 q);

struct Metric {
  f64 value = 0.0;
  std::string unit;
};

/// The run's record: metrics, timings, gates, counts.
class Result {
 public:
  /// No failed operation (a failed gate counts as one).
  bool correct() const;
  u64 attempted = 0;
  u64 failed = 0;

  /// Records a metric; names outside the suite's metric table throw.
  /// Metrics of layers a workload does not run are never set.
  void set(const std::string& name, f64 value);
  /// Records a timing for the detail file (n, median, tail).
  void add_timing(const std::string& name, const std::string& unit,
                  const Samples& samples);
  /// A correctness gate passes when value <= bound. A failed gate is a
  /// failed operation.
  void add_gate(const std::string& name, f64 value, f64 bound);
  void note(const std::string& key, f64 value);
  void note(const std::string& key, const std::string& value);
  /// Span self times (traced runs), already rendered as a JSON object.
  void set_self_times(std::string json) { self_times_json_ = std::move(json); }

  std::string detail_json(const Options& options) const;
  std::string summary_line() const;

 private:
  /// Timings with at most this many samples also list them, in order.
  static constexpr std::size_t kListedSamples = 256;
  struct Timing {
    std::string name, unit;
    std::size_t n = 0;
    f64 p50 = 0.0, tail_q = 0.0, tail = 0.0;
    std::vector<f64> values;
  };
  struct Gate {
    std::string name;
    f64 value = 0.0, bound = 0.0;
    bool pass = false;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<Timing> timings_;
  std::vector<Gate> gates_;
  std::vector<std::pair<std::string, std::string>> notes_;  // key -> JSON
  std::string self_times_json_;
};

/// Turns the library's span rings and metrics registry on or off
/// together (they are process-wide).
void set_telemetry(bool on);

/// Set-up runs per process. setup_s is their median: one value per
/// process, steadier than a single set-up on a shared host.
inline constexpr u32 kSetupRuns = 3;

/// Runs `build` kSetupRuns times (the state is rebuilt from scratch each
/// time, the previous one destroyed first) and records the median wall
/// time as setup_s. Returns the last state.
template <typename Build>
auto repeated_setup(Result& result, Build build) {
  decltype(build()) state;
  Samples s;
  for (u32 i = 0; i < kSetupRuns; ++i) {
    state.reset();
    const u64 t0 = now_ns();
    state = build();
    s.add(seconds_since(t0));
  }
  result.set("setup_s", s.median());
  result.add_timing("setup", "s", s);
  return state;
}

// ---- Corpora and the ranking policy -----------------------------------

/// The corpora keep the generator seed of the named configuration, so
/// every run ranks the same graph: the generator's source sizes are
/// heavy-tailed, and a per-run corpus would move page and link counts by
/// several percent between seeds. --seed drives everything the workload
/// feeds that graph: the spam seed sample, the edits, the query streams
/// and the label samples.
enum class CorpusSize {
  kWB2001S,  // the scaled configuration: 20k sources
  kWB2001M,  // the same generator at 100k sources
};

graph::WebCorpus make_corpus(CorpusSize size, const Options& options);
/// Records the corpus name and sizes in the detail file.
void note_corpus(CorpusSize size, const Options& options,
                 const graph::WebCorpus& corpus, Result& result);

/// The paper's Sec. 6.2 policy: seeds are a 10% sample of the planted
/// spam, and the top 2×|spam| spam-proximate sources are fully
/// throttled.
struct Policy {
  std::vector<NodeId> seeds;
  u32 spam = 0;
  u32 top_k = 0;
  std::string name;
};
Policy paper_policy(const graph::WebCorpus& corpus, u64 seed);

/// L1 error bound implied by the paper's stopping rule for an n-source
/// power solve: ||x - x*||_1 <= sqrt(n) * tol / (1 - alpha).
f64 paper_error_bound(NodeId n);

/// The reference: the same operator solved to L1 1e-14.
rank::RankResult tight_solve(const core::SpamResilientSourceRank& model,
                             std::span<const f64> kappa);

f64 l1_distance(std::span<const f64> a, std::span<const f64> b);

// ---- Queries ------------------------------------------------------------

enum class QueryKind : u8 { kScore, kRankOf, kTopK, kCompare };
inline constexpr std::array<const char*, 4> kQueryKinds = {
    "score", "rank_of", "top_k", "compare"};

/// Query generator: 40% score(host), 30% rank_of(host), 20% top_k(10),
/// 10% compare(host); hosts drawn Zipf(1.0) over a seeded permutation.
/// A query is packed into a u32: kind in the top two bits, host below.
class QueryMix {
 public:
  QueryMix(u32 num_hosts, u64 seed);
  std::vector<u32> draw(std::size_t n, Pcg32& rng) const;

  static QueryKind kind(u32 q) { return static_cast<QueryKind>(q >> 30); }
  static u32 host(u32 q) { return q & ((1u << 30) - 1); }

 private:
  std::vector<u32> permutation_;
  AliasSampler zipf_;
};

/// Runs one query; false when the engine had no answer.
bool run_query(const serve::QueryEngine& engine,
               const std::vector<std::string>& hosts, u32 query);

// ---- Traces ------------------------------------------------------------

struct SpanStats {
  Samples duration_s;
  Samples self_s;
  f64 self_total_s = 0.0;
};
/// Per span name: durations and self times (duration minus the part of
/// the span covered by its children).
std::map<std::string, SpanStats> span_stats(
    const std::vector<obs::SpanRecord>& spans);
/// Work handed from a `parent` span to a `child` span on another thread
/// (a submitted update and the worker's span for it), pair by pair.
struct HandOff {
  Samples wait_s;     // child start - parent start: the queue wait
  Samples outside_s;  // parent duration - child duration: all the
                      // hand-off costs beyond the child's own work
};
HandOff hand_offs(const std::vector<obs::SpanRecord>& spans,
                  const std::string& parent, const std::string& child);
/// Traced runs: drains the span rings, writes the Perfetto trace to
/// options.trace_out and the self-time table into the result. Returns
/// the spans for further analysis.
std::vector<obs::SpanRecord> collect_trace(const Options& options,
                                           Result& result);

/// Registry reads for the library's own StageTimers and counters.
f64 histogram_mean(const obs::MetricsRegistry::Snapshot& snapshot,
                   const std::string& name);
f64 histogram_sum(const obs::MetricsRegistry::Snapshot& snapshot,
                  const std::string& name);
f64 counter_value(const obs::MetricsRegistry::Snapshot& snapshot,
                  const std::string& name);

/// Per-layer metrics every traced static solve reports: the library's
/// core/rank StageTimers and counters, plus computed pull traffic.
void report_static_layers(const obs::MetricsRegistry::Snapshot& snapshot,
                          const std::map<std::string, SpanStats>& spans,
                          NodeId sources, u64 entries, Result& result);

/// Percent by which `traced` exceeds `untraced` (0 when either is empty).
f64 overhead_pct(const Samples& traced, const Samples& untraced);

// ---- Workloads ------------------------------------------------------------

void run_crawl_start(const Options& options, Result& result);
void run_cold_build(const Options& options, Result& result);
void run_edit_stream(const Options& options, Result& result);
void run_query_churn(const Options& options, Result& result);

}  // namespace srsr::suite
