#include "obs/report.hpp"

#include <filesystem>
#include <fstream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace srsr::obs {

void RunReport::set_meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, json::quote(value));
}

void RunReport::set_meta(const std::string& key, f64 value) {
  meta_.emplace_back(key, json::number(value));
}

void RunReport::set_meta(const std::string& key, u64 value) {
  meta_.emplace_back(key, json::number(value));
}

void RunReport::add_stage(const std::string& stage, f64 seconds) {
  stages_.push_back({stage, seconds});
}

void RunReport::set_solver(const SolverRun& run) {
  has_solver_ = true;
  solver_ = run;
}

void RunReport::set_trace(const IterationTrace& trace) {
  has_trace_ = true;
  trace_ = trace.records();
}

void RunReport::capture_metrics() {
  metrics_json_ = MetricsRegistry::instance().snapshot_json();
}

void RunReport::set_table(std::vector<std::string> headers,
                          std::vector<std::vector<std::string>> rows) {
  has_table_ = true;
  table_headers_ = std::move(headers);
  table_rows_ = std::move(rows);
}

std::string RunReport::to_json() const {
  std::string out = "{\"schema_version\":1,\"name\":" + json::quote(name_);
  out += ",\"meta\":{";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    if (i) out += ',';
    out += json::quote(meta_[i].first) + ":" + meta_[i].second;
  }
  out += "},\"stages\":[";
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (i) out += ',';
    out += "{\"stage\":" + json::quote(stages_[i].stage) +
           ",\"seconds\":" + json::number(stages_[i].seconds) + "}";
  }
  out += "]";
  if (has_solver_) {
    const f64 ips = solver_.seconds > 0.0
                        ? static_cast<f64>(solver_.iterations) / solver_.seconds
                        : 0.0;
    out += ",\"solver\":{\"name\":" + json::quote(solver_.solver) +
           ",\"iterations\":" + json::number(solver_.iterations) +
           ",\"residual\":" + json::number(solver_.residual) +
           ",\"converged\":" + json::boolean(solver_.converged) +
           ",\"seconds\":" + json::number(solver_.seconds) +
           ",\"iterations_per_second\":" + json::number(ips) +
           ",\"first_residual\":" + json::number(solver_.trace.first_residual) +
           ",\"last_residual\":" + json::number(solver_.trace.last_residual) +
           ",\"decay_rate\":" + json::number(solver_.trace.decay_rate) + "}";
  }
  if (has_trace_) {
    out += ",\"trace\":[";
    for (std::size_t i = 0; i < trace_.size(); ++i) {
      if (i) out += ',';
      out += "{\"iteration\":" + json::number(trace_[i].iteration) +
             ",\"residual\":" + json::number(trace_[i].residual) +
             ",\"delta\":" + json::number(trace_[i].delta) +
             ",\"seconds\":" + json::number(trace_[i].seconds) + "}";
    }
    out += "]";
  }
  if (has_table_) {
    out += ",\"table\":{\"headers\":[";
    for (std::size_t i = 0; i < table_headers_.size(); ++i) {
      if (i) out += ',';
      out += json::quote(table_headers_[i]);
    }
    out += "],\"rows\":[";
    for (std::size_t r = 0; r < table_rows_.size(); ++r) {
      if (r) out += ',';
      out += '[';
      for (std::size_t c = 0; c < table_rows_[r].size(); ++c) {
        if (c) out += ',';
        out += json::quote(table_rows_[r][c]);
      }
      out += ']';
    }
    out += "]}";
  }
  if (!metrics_json_.empty()) out += ",\"metrics\":" + metrics_json_;
  out += "}";
  return out;
}

void RunReport::write(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;  // surfaced via the open check below, not a throw
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  // Write-temp-then-rename: a reader (e.g. the serve layer or a
  // dashboard tailing bench_out/) must never observe a truncated
  // report, even if this process dies mid-write. rename(2) within one
  // directory is atomic on POSIX.
  const std::filesystem::path tmp(path + ".tmp");
  {
    std::ofstream out(tmp, std::ios::trunc);
    SRSR_CHECK(out.good(), "RunReport::write: cannot open ", tmp.string());
    out << to_json() << '\n';
    out.flush();
    SRSR_CHECK(out.good(), "RunReport::write: failed writing ", tmp.string());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, p, ec);
  if (ec) {
    std::error_code ignored;  // best effort; keep the rename error primary
    std::filesystem::remove(tmp, ignored);
    SRSR_CHECK(false, "RunReport::write: cannot rename ", tmp.string(), " to ",
               path, ": ", ec.message());
  }
}

}  // namespace srsr::obs
