#include "obs/expfmt.hpp"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace srsr::obs {

namespace {

/// Sample-value formatting: %.17g round-trips doubles and is accepted
/// by the Prometheus parser (which takes Go strconv float syntax).
std::string prom_value(f64 v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Bucket le labels use shortest-form %g — they are identifiers, not
/// payloads, and "0.001" reads better than a 17-digit expansion.
std::string le_label(f64 bound) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", bound);
  return buf;
}

}  // namespace

std::string prometheus_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const unsigned char u = static_cast<unsigned char>(c);
    const bool ok = std::isalnum(u) != 0 || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])))
    out.insert(out.begin(), '_');
  return out;
}

std::string prometheus_text(const MetricsRegistry::Snapshot& snapshot) {
  std::string out;
  for (const auto& [name, v] : snapshot.counters) {
    // The _total suffix is the Prometheus counter convention; the
    // registry's dotted name stays suffix-free.
    const std::string n = prometheus_name(name) + "_total";
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : snapshot.gauges) {
    const std::string n = prometheus_name(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + prom_value(v) + "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string n = prometheus_name(name);
    out += "# TYPE " + n + " histogram\n";
    u64 cumulative = 0;
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      cumulative += h.counts[b];
      out += n + "_bucket{le=\"" + le_label(h.bounds[b]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += n + "_sum " + prom_value(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string prometheus_text() {
  return prometheus_text(MetricsRegistry::instance().snapshot());
}

std::string perfetto_trace_json(std::span<const SpanRecord> spans) {
  // Complete events ("ph":"X") with microsecond ts/dur — the schema
  // both chrome://tracing and Perfetto ingest without a metadata
  // preamble. Ids ride in args: numbers under 2^53 (the global id
  // counter would take centuries to get near it), so plain JSON
  // numbers are lossless here.
  std::string out =
      "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":" + json::quote(s.name) +
           ",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(s.thread_index) +
           ",\"ts\":" + json::number(static_cast<f64>(s.start_ns) / 1e3) +
           ",\"dur\":" + json::number(static_cast<f64>(s.duration_ns) / 1e3) +
           ",\"args\":{\"trace_id\":" + json::number(s.trace_id) +
           ",\"span_id\":" + json::number(s.span_id) +
           ",\"parent_id\":" + json::number(s.parent_id) + "}}";
  }
  out += "]}";
  return out;
}

void write_perfetto_trace(const std::string& path,
                          std::span<const SpanRecord> spans) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;  // surfaced via the open check below
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  const std::filesystem::path tmp(path + ".tmp");
  {
    std::ofstream out(tmp, std::ios::trunc);
    SRSR_CHECK(out.good(), "write_perfetto_trace: cannot open ", tmp.string());
    out << perfetto_trace_json(spans) << '\n';
    out.flush();
    SRSR_CHECK(out.good(), "write_perfetto_trace: failed writing ",
               tmp.string());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, p, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    SRSR_CHECK(false, "write_perfetto_trace: cannot rename ", tmp.string(),
               " to ", path, ": ", ec.message());
  }
}

}  // namespace srsr::obs
