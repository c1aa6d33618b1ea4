// Structured per-run JSON reports.
//
// A RunReport is the machine-readable record of one solve/bench/CLI
// run: free-form metadata, per-stage wall times (fed by StageTimer),
// the solver outcome with its trace summary, the full per-iteration
// residual series, and optionally a snapshot of the metrics registry.
//
// JSON schema (schema_version 1):
//
//   {
//     "schema_version": 1,
//     "name": "<run name>",
//     "meta": {"<key>": <string|number>, ...},
//     "stages": [{"stage": "<name>", "seconds": <f64>}, ...],
//     "solver": {            // present once set_solver() was called
//       "name": "<power|jacobi|push|pagerank|...>",
//       "iterations": <u32>, "residual": <f64>, "converged": <bool>,
//       "seconds": <f64>, "iterations_per_second": <f64>,
//       "first_residual": <f64>, "last_residual": <f64>,
//       "decay_rate": <f64>
//     },
//     "trace": [             // present once set_trace() was called
//       {"iteration": 1, "residual": <f64>, "delta": <f64>,
//        "seconds": <f64>}, ...
//     ],
//     "table": {             // present once set_table() was called
//       "headers": ["<col>", ...], "rows": [["<cell>", ...], ...]
//     },
//     "metrics": {...}       // present once capture_metrics() was
//   }                        // called; see MetricsRegistry::snapshot_json
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/common.hpp"

namespace srsr::obs {

/// Solver outcome in report form. Mirrors rank::RankResult's terminal
/// fields without depending on the rank layer (obs sits below it).
struct SolverRun {
  std::string solver;
  u32 iterations = 0;
  f64 residual = 0.0;
  bool converged = false;
  f64 seconds = 0.0;
  TraceSummary trace;
};

class RunReport {
 public:
  explicit RunReport(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  void set_meta(const std::string& key, const std::string& value);
  void set_meta(const std::string& key, f64 value);
  void set_meta(const std::string& key, u64 value);

  /// Appends a stage timing (stages keep insertion order; repeated
  /// stage names are kept as separate entries).
  void add_stage(const std::string& stage, f64 seconds);

  void set_solver(const SolverRun& run);

  /// Copies the trace's buffered iteration series into the report.
  void set_trace(const IterationTrace& trace);

  /// Embeds a point-in-time snapshot of the global metrics registry.
  void capture_metrics();

  /// Attaches a result table (string cells, e.g. a bench TextTable's
  /// raw headers/rows) — serialized as {"headers": [...], "rows":
  /// [[...], ...]}. Numeric-looking cells stay strings; the formatting
  /// the table printed is the record.
  void set_table(std::vector<std::string> headers,
                 std::vector<std::vector<std::string>> rows);

  struct Stage {
    std::string stage;
    f64 seconds = 0.0;
  };
  const std::vector<Stage>& stages() const { return stages_; }

  std::string to_json() const;

  /// Writes to_json() to `path`, creating parent directories.
  void write(const std::string& path) const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> meta_;  // key -> JSON value
  std::vector<Stage> stages_;
  bool has_solver_ = false;
  SolverRun solver_;
  bool has_trace_ = false;
  std::vector<IterationRecord> trace_;
  bool has_table_ = false;
  std::vector<std::string> table_headers_;
  std::vector<std::vector<std::string>> table_rows_;
  std::string metrics_json_;  // empty until capture_metrics()
};

}  // namespace srsr::obs
