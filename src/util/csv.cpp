#include "util/csv.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "util/check.hpp"
#include "util/log.hpp"

namespace srsr {

bool csv_output_enabled() {
  const char* v = std::getenv("SRSR_BENCH_CSV");
  return v != nullptr && v[0] != '\0';
}

std::string maybe_write_csv(const std::string& name, const TextTable& table) {
  if (!csv_output_enabled()) return {};
  std::filesystem::create_directories("bench_out");
  const std::string path = "bench_out/" + name + ".csv";
  std::ofstream out(path);
  SRSR_CHECK(out.good(), "maybe_write_csv: cannot open ", path);
  out << table.render_csv();
  log_info("wrote ", path);
  return path;
}

}  // namespace srsr
