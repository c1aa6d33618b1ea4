// Shared helpers for the bench harness: dataset construction, solver
// configs with the paper's parameters, and uniform output plumbing.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "core/srsr.hpp"
#include "graph/webgen.hpp"
#include "obs/report.hpp"
#include "rank/pagerank.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace srsr::bench {

/// Paper parameters (Sec. 6.1): alpha = 0.85, L2 convergence < 1e-9.
inline rank::Convergence paper_convergence() {
  rank::Convergence c;
  c.norm = rank::Norm::kL2;
  c.tolerance = 1e-9;
  c.max_iterations = 1000;
  return c;
}

inline constexpr f64 kAlpha = 0.85;

inline rank::SolverConfig paper_pagerank_config() {
  rank::SolverConfig cfg;
  cfg.alpha = kAlpha;
  cfg.convergence = paper_convergence();
  return cfg;
}

inline core::SrsrConfig paper_srsr_config(
    core::ThrottleMode mode = core::ThrottleMode::kTeleportDiscard) {
  core::SrsrConfig cfg;
  cfg.alpha = kAlpha;
  cfg.convergence = paper_convergence();
  cfg.throttle_mode = mode;
  return cfg;
}

/// The three scaled stand-in datasets of DESIGN.md Sec. 2.
inline std::vector<graph::ScaledDataset> all_datasets() {
  return {graph::ScaledDataset::kUK2002S, graph::ScaledDataset::kIT2004S,
          graph::ScaledDataset::kWB2001S};
}

/// Generates a dataset, logging the wall time (corpus generation is the
/// slowest non-solver step on the big config).
inline graph::WebCorpus make_dataset(graph::ScaledDataset which) {
  WallTimer timer;
  auto corpus = graph::generate_web_corpus(graph::scaled_dataset_config(which));
  log_info(graph::dataset_name(which), ": ", corpus.num_sources(),
           " sources, ", corpus.num_pages(), " pages, ",
           corpus.pages.num_edges(), " edges (", TextTable::fixed(timer.seconds(), 2),
           "s to generate)");
  return corpus;
}

/// Prints a bench table to stdout, always mirrors it as a RunReport
/// JSON document to bench_out/BENCH_<csv_name>.json (the machine-
/// readable record a dashboard or regression diff consumes), and
/// optionally mirrors it to CSV (SRSR_BENCH_CSV).
inline void emit(const std::string& title, const std::string& csv_name,
                 const TextTable& table) {
  std::cout << '\n' << table.render(title) << std::flush;
  obs::RunReport report(csv_name);
  report.set_meta("title", title);
  report.set_meta("rows", static_cast<u64>(table.row_count()));
  report.set_table(table.headers(), table.rows());
  report.write("bench_out/BENCH_" + csv_name + ".json");
  maybe_write_csv(csv_name, table);
}

/// Converts a solver result into the RunReport solver record (the
/// obs layer sits below rank and cannot name RankResult itself).
inline obs::SolverRun solver_run_of(const std::string& solver,
                                    const rank::RankResult& r) {
  obs::SolverRun run;
  run.solver = solver;
  run.iterations = r.iterations;
  run.residual = r.residual;
  run.converged = r.converged;
  run.seconds = r.seconds;
  run.trace = r.trace;
  return run;
}

/// True when SRSR_BENCH_REPORT is set (non-empty) in the environment.
inline bool report_output_enabled() {
  const char* v = std::getenv("SRSR_BENCH_REPORT");
  return v != nullptr && v[0] != '\0';
}

/// Writes `report` as bench_out/BENCH_<name>.json (mirroring
/// maybe_write_csv) when SRSR_BENCH_REPORT is set. Returns the path
/// written, or "" when disabled.
inline std::string maybe_write_report(const std::string& name,
                                      const obs::RunReport& report) {
  if (!report_output_enabled()) return {};
  const std::string path = "bench_out/BENCH_" + name + ".json";
  report.write(path);
  log_info("wrote ", path);
  return path;
}

/// Seed-sampling per Sec. 6.2: a random <10% subset of the true spam
/// set, deterministic in `seed`.
inline std::vector<NodeId> sample_spam_seeds(
    const std::vector<NodeId>& spam_sources, f64 fraction, u64 seed) {
  Pcg32 rng(seed);
  const u32 k = std::max<u32>(
      1, static_cast<u32>(static_cast<f64>(spam_sources.size()) * fraction));
  const auto idx = sample_without_replacement(
      rng, static_cast<u32>(spam_sources.size()), k);
  std::vector<NodeId> seeds;
  seeds.reserve(k);
  for (const u32 i : idx) seeds.push_back(spam_sources[i]);
  return seeds;
}

}  // namespace srsr::bench
