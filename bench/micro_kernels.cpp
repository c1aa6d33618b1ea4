// Kernel microbenchmarks (google-benchmark): the hot paths behind the
// experiment harness — rank iterations, source-graph construction, the
// throttle transform and kappa sweeps (materialized vs lazy view).
// Besides the console output, every run writes
// bench_out/BENCH_micro_kernels.json (obs/report.hpp schema, one table
// row per benchmark) — the same machine-readable record the table/
// figure harnesses emit.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>

#include "obs/report.hpp"
#include "util/table.hpp"

#include "core/source_graph.hpp"
#include "core/srsr.hpp"
#include "core/throttle.hpp"
#include "graph/scc.hpp"
#include "graph/transforms.hpp"
#include "graph/webgen.hpp"
#include "rank/operator.hpp"
#include "rank/pagerank.hpp"
#include "rank/push.hpp"
#include "rank/solvers.hpp"

// Allocation counter for the kappa-sweep benchmarks: every operator new
// in the process is tallied so a benchmark can assert (via counters in
// the JSON output) that the view path performs zero O(E)-sized
// allocations per configuration. Relaxed atomics: the counters are only
// read between benchmark phases.
namespace alloc_counter {
std::atomic<unsigned long long> count{0};
std::atomic<unsigned long long> bytes{0};
std::atomic<unsigned long long> large_count{0};
// Allocations of at least this many bytes count as "large" (O(E)-scale;
// set per benchmark from the matrix dimensions).
std::atomic<unsigned long long> large_threshold{~0ULL};

inline void reset() {
  count.store(0, std::memory_order_relaxed);
  bytes.store(0, std::memory_order_relaxed);
  large_count.store(0, std::memory_order_relaxed);
}
}  // namespace alloc_counter

namespace {
void* counted_alloc(std::size_t n) {
  alloc_counter::count.fetch_add(1, std::memory_order_relaxed);
  alloc_counter::bytes.fetch_add(n, std::memory_order_relaxed);
  if (n >= alloc_counter::large_threshold.load(std::memory_order_relaxed))
    alloc_counter::large_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace srsr {
namespace {

graph::WebCorpus& corpus_of(u32 sources) {
  static std::map<u32, graph::WebCorpus> cache;
  auto it = cache.find(sources);
  if (it == cache.end()) {
    graph::WebGenConfig cfg;
    cfg.num_sources = sources;
    cfg.num_spam_sources = sources / 50;
    cfg.seed = 12345;
    it = cache.emplace(sources, graph::generate_web_corpus(cfg)).first;
  }
  return it->second;
}

void BM_WebCorpusGeneration(benchmark::State& state) {
  graph::WebGenConfig cfg;
  cfg.num_sources = static_cast<u32>(state.range(0));
  cfg.seed = 999;
  u64 edges = 0;
  for (auto _ : state) {
    const auto corpus = graph::generate_web_corpus(cfg);
    edges = corpus.pages.num_edges();
    benchmark::DoNotOptimize(corpus.pages.num_edges());
  }
  state.counters["edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_WebCorpusGeneration)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_PageRankSolve(benchmark::State& state) {
  const auto& corpus = corpus_of(static_cast<u32>(state.range(0)));
  const rank::PageRank solver(corpus.pages);
  rank::SolverConfig cfg;
  cfg.convergence.tolerance = 1e-9;
  for (auto _ : state) {
    const auto r = solver.solve(cfg);
    benchmark::DoNotOptimize(r.scores.data());
  }
  state.counters["edges"] = static_cast<double>(corpus.pages.num_edges());
}
BENCHMARK(BM_PageRankSolve)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_PageRankSolverSetup(benchmark::State& state) {
  const auto& corpus = corpus_of(2000);
  for (auto _ : state) {
    const rank::PageRank solver(corpus.pages);
    benchmark::DoNotOptimize(&solver);
  }
}
BENCHMARK(BM_PageRankSolverSetup)->Unit(benchmark::kMillisecond);

void BM_SourceGraphConstruction(benchmark::State& state) {
  const auto& corpus = corpus_of(static_cast<u32>(state.range(0)));
  const core::SourceMap map = core::SourceMap::from_corpus(corpus);
  for (auto _ : state) {
    const core::SourceGraph sg(corpus.pages, map);
    benchmark::DoNotOptimize(sg.num_edges());
  }
}
BENCHMARK(BM_SourceGraphConstruction)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_ThrottleTransform(benchmark::State& state) {
  const auto& corpus = corpus_of(4000);
  const core::SourceMap map = core::SourceMap::from_corpus(corpus);
  const core::SourceGraph sg(corpus.pages, map);
  const auto tprime = sg.consensus_matrix(true);
  std::vector<f64> kappa(sg.num_sources(), 0.0);
  for (u32 s = 0; s < sg.num_sources(); s += 3) kappa[s] = 0.9;
  for (auto _ : state) {
    const auto t2 = core::apply_throttle(tprime, kappa);
    benchmark::DoNotOptimize(t2.num_entries());
  }
}
BENCHMARK(BM_ThrottleTransform)->Unit(benchmark::kMillisecond);

// --- Kappa sweep: materialized path vs lazy ThrottledView -----------
//
// The access pattern of every Sec. 6 experiment: one topology, many
// kappa configurations. The *Setup benches isolate the per-config
// preparation cost (materialize T'' + transpose vs an O(V) plan); the
// *Sweep benches time a full 10-config solve sweep — each config
// warm-started from the previous scores, the natural sweep idiom, the
// same on both paths — and report items/s (configs ranked per second)
// plus allocation counters (alloc_bytes_per_config, and large_allocs =
// allocations of O(E) size — 0 on the view path after the first solve).

constexpr int kSweepConfigs = 10;

std::vector<std::vector<f64>> sweep_kappas(u32 sources) {
  std::vector<std::vector<f64>> kappas;
  for (int c = 0; c < kSweepConfigs; ++c) {
    std::vector<f64> kappa(sources, 0.0);
    for (u32 s = 0; s < sources; s += 3)
      kappa[s] = static_cast<f64>(c) / kSweepConfigs;
    kappas.push_back(std::move(kappa));
  }
  return kappas;
}

core::SpamResilientSourceRank& sweep_model() {
  static const auto* map = new core::SourceMap(
      core::SourceMap::from_corpus(corpus_of(2000)));
  static auto* model = [] {
    core::SrsrConfig cfg;
    cfg.convergence.tolerance = 1e-9;
    return new core::SpamResilientSourceRank(corpus_of(2000).pages, *map,
                                             cfg);
  }();
  return *model;
}

unsigned long long large_threshold_of(const rank::StochasticMatrix& m) {
  // An allocation is O(E)-scale when it is at least as big as the
  // smallest O(E) array (the u32 column index array) AND clearly above
  // any O(V) solver vector.
  return std::max<unsigned long long>(m.num_entries() * sizeof(NodeId),
                                      m.num_rows() * 2 * sizeof(f64));
}

void BM_ThrottleSetupMaterialized(benchmark::State& state) {
  const auto& model = sweep_model();
  const auto kappas = sweep_kappas(model.num_sources());
  int c = 0;
  for (auto _ : state) {
    // What every configuration paid before the operator layer: an O(E)
    // materialization followed by the solver's O(E) transpose.
    const auto t2 = model.throttled_matrix(kappas[c % kSweepConfigs]);
    const auto pull = t2.transpose();
    benchmark::DoNotOptimize(pull.num_entries());
    ++c;
  }
}
BENCHMARK(BM_ThrottleSetupMaterialized)->Unit(benchmark::kMillisecond);

void BM_ThrottleSetupView(benchmark::State& state) {
  const auto& model = sweep_model();
  const auto kappas = sweep_kappas(model.num_sources());
  int c = 0;
  for (auto _ : state) {
    const auto view = model.throttled_view(kappas[c % kSweepConfigs]);
    benchmark::DoNotOptimize(view.plan().off_scale.data());
    ++c;
  }
}
BENCHMARK(BM_ThrottleSetupView)->Unit(benchmark::kMillisecond);

void BM_KappaSweepMaterialized(benchmark::State& state) {
  const auto& model = sweep_model();
  const auto kappas = sweep_kappas(model.num_sources());
  rank::SolverConfig sc;
  sc.alpha = model.config().alpha;
  sc.convergence = model.config().convergence;
  // Warm solve, then count allocations over the timed sweeps.
  sc.initial = rank::power_solve(model.throttled_matrix(kappas[0]), sc).scores;
  alloc_counter::large_threshold.store(
      large_threshold_of(model.base_matrix()), std::memory_order_relaxed);
  alloc_counter::reset();
  u64 solves = 0;
  for (auto _ : state) {
    for (const auto& kappa : kappas) {
      const auto r = rank::power_solve(model.throttled_matrix(kappa), sc);
      benchmark::DoNotOptimize(r.scores.data());
      sc.initial = r.scores;
      ++solves;
    }
  }
  // items/s in the JSON = configurations ranked per second; its inverse
  // is the per-configuration wall time.
  state.SetItemsProcessed(static_cast<int64_t>(solves));
  const f64 per = static_cast<f64>(solves ? solves : 1);
  state.counters["alloc_bytes_per_config"] =
      static_cast<f64>(alloc_counter::bytes.load()) / per;
  state.counters["large_allocs_per_config"] =
      static_cast<f64>(alloc_counter::large_count.load()) / per;
  alloc_counter::large_threshold.store(~0ULL, std::memory_order_relaxed);
}
BENCHMARK(BM_KappaSweepMaterialized)->Unit(benchmark::kMillisecond);

void BM_KappaSweepView(benchmark::State& state) {
  const auto& model = sweep_model();
  const auto kappas = sweep_kappas(model.num_sources());
  rank::SolverConfig sc;
  sc.alpha = model.config().alpha;
  sc.convergence = model.config().convergence;
  // First solve (warm caches), then assert the sweep itself never
  // touches an O(E) allocation again.
  sc.initial = rank::power_solve(model.throttled_view(kappas[0]), sc).scores;
  alloc_counter::large_threshold.store(
      large_threshold_of(model.base_matrix()), std::memory_order_relaxed);
  alloc_counter::reset();
  u64 solves = 0;
  for (auto _ : state) {
    for (const auto& kappa : kappas) {
      const auto r = rank::power_solve(model.throttled_view(kappa), sc);
      benchmark::DoNotOptimize(r.scores.data());
      sc.initial = r.scores;
      ++solves;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(solves));
  const f64 per = static_cast<f64>(solves ? solves : 1);
  state.counters["alloc_bytes_per_config"] =
      static_cast<f64>(alloc_counter::bytes.load()) / per;
  state.counters["large_allocs_per_config"] =
      static_cast<f64>(alloc_counter::large_count.load()) / per;
  alloc_counter::large_threshold.store(~0ULL, std::memory_order_relaxed);
}
BENCHMARK(BM_KappaSweepView)->Unit(benchmark::kMillisecond);

void BM_SrsrEndToEnd(benchmark::State& state) {
  const auto& corpus = corpus_of(2000);
  const core::SourceMap map = core::SourceMap::from_corpus(corpus);
  core::SrsrConfig cfg;
  cfg.convergence.tolerance = 1e-9;
  for (auto _ : state) {
    const core::SpamResilientSourceRank model(corpus.pages, map, cfg);
    const auto r = model.rank_baseline();
    benchmark::DoNotOptimize(r.scores.data());
  }
}
BENCHMARK(BM_SrsrEndToEnd)->Unit(benchmark::kMillisecond);

void BM_GraphReverse(benchmark::State& state) {
  const auto& corpus = corpus_of(4000);
  for (auto _ : state) {
    const auto r = graph::reverse(corpus.pages);
    benchmark::DoNotOptimize(r.num_edges());
  }
}
BENCHMARK(BM_GraphReverse)->Unit(benchmark::kMillisecond);

void BM_PushSolveLocal(benchmark::State& state) {
  const auto& corpus = corpus_of(2000);
  const auto m =
      rank::StochasticMatrix::uniform_from_graph(corpus.pages);
  rank::PushConfig cfg;
  cfg.epsilon = 1e-8;
  cfg.teleport = std::vector<f64>(m.num_rows(), 0.0);
  (*cfg.teleport)[0] = 1.0;
  u64 pushes = 0;
  for (auto _ : state) {
    const auto r = rank::push_solve(m, cfg);
    pushes = r.pushes;
    benchmark::DoNotOptimize(r.scores.data());
  }
  state.counters["pushes"] = static_cast<double>(pushes);
}
BENCHMARK(BM_PushSolveLocal)->Unit(benchmark::kMillisecond);

void BM_SccDecomposition(benchmark::State& state) {
  const auto& corpus = corpus_of(4000);
  for (auto _ : state) {
    const auto scc = graph::strongly_connected_components(corpus.pages);
    benchmark::DoNotOptimize(scc.num_components);
  }
}
BENCHMARK(BM_SccDecomposition)->Unit(benchmark::kMillisecond);

/// Console reporter that additionally collects every run into a
/// RunReport table, written as bench_out/BENCH_micro_kernels.json.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  bool ReportContext(const Context& context) override {
    return benchmark::ConsoleReporter::ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      std::ostringstream counters;
      bool first = true;
      for (const auto& [key, counter] : run.counters) {
        if (!first) counters << ';';
        counters << key << '=' << static_cast<double>(counter);
        first = false;
      }
      rows_.push_back({run.benchmark_name(),
                       TextTable::fixed(run.GetAdjustedRealTime(), 3),
                       TextTable::fixed(run.GetAdjustedCPUTime(), 3),
                       benchmark::GetTimeUnitString(run.time_unit),
                       TextTable::num(static_cast<u64>(run.iterations)),
                       counters.str()});
    }
  }

  void write_report() const {
    obs::RunReport report("micro_kernels");
    report.set_meta("benchmarks", static_cast<u64>(rows_.size()));
    report.set_table(
        {"name", "real_time", "cpu_time", "unit", "iterations", "counters"},
        rows_);
    report.write("bench_out/BENCH_micro_kernels.json");
  }

 private:
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace
}  // namespace srsr

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  srsr::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.write_report();
  benchmark::Shutdown();
  return 0;
}
