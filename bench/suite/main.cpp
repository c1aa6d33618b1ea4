// srsr_bench — one workload of the end-to-end benchmark suite.
//
//   OMP_NUM_THREADS=2 srsr_bench --workload crawl_start|cold_build|
//       edit_stream|query_churn --seed N --out FILE [--seconds S]
//       [--traced --trace-out FILE] [--smoke]
//
// Writes the detail record to --out and prints the summary line last on
// stdout. Exits 0 only when every correctness gate passed and no
// operation failed; 2 on a usage error or an unpinned OpenMP team.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "suite.hpp"
#include "util/parallel.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "srsr_bench: " << why << "\n"
            << "usage: srsr_bench --workload W --seed N --out FILE "
               "[--seconds S] [--traced --trace-out FILE] [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace srsr;
  suite::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--traced") {
      o.traced = true;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (!has_value) {
      return usage("missing value for " + arg);
    } else if (arg == "--workload") {
      o.workload = argv[++i];
    } else if (arg == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--out") {
      o.out = argv[++i];
    } else if (arg == "--trace-out") {
      o.trace_out = argv[++i];
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (o.out.empty()) return usage("--out is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0))
    return usage("--seconds must be in (0, 600]");

  const char* pinned = std::getenv("OMP_NUM_THREADS");
  const std::string want = std::to_string(suite::kPinnedThreads);
  if (pinned == nullptr || want != pinned ||
      num_threads() != suite::kPinnedThreads) {
    std::cerr << "srsr_bench: OMP_NUM_THREADS must be " << want
              << " (BENCHMARK.json's command sets it); got "
              << (pinned ? pinned : "unset") << ", team of " << num_threads()
              << "\n";
    return 2;
  }

  namespace fs = std::filesystem;
  suite::Result result;
  try {
    o.work_dir = fs::absolute(o.out).parent_path().string();
    fs::create_directories(o.work_dir);
    suite::set_telemetry(false);
    if (o.workload == "crawl_start") {
      suite::run_crawl_start(o, result);
    } else if (o.workload == "cold_build") {
      suite::run_cold_build(o, result);
    } else if (o.workload == "edit_stream") {
      suite::run_edit_stream(o, result);
    } else if (o.workload == "query_churn") {
      suite::run_query_churn(o, result);
    } else {
      return usage("unknown workload '" + o.workload + "'");
    }
    std::ofstream out(o.out);
    out << result.detail_json(o);
    check(out.good(), "cannot write " + o.out);
  } catch (const std::exception& e) {
    std::cerr << "srsr_bench: " << o.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  std::cout << result.summary_line() << std::endl;
  return result.correct() ? 0 : 1;
}
