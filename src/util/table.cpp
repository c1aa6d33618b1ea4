#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace srsr {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  SRSR_CHECK(!headers_.empty(), "TextTable: need at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  SRSR_CHECK(cells.size() == headers_.size(),
             "TextTable::add_row: cell count does not match header count");
  rows_.push_back(std::move(cells));
}

std::string TextTable::num(u64 v) { return with_commas(v); }

std::string TextTable::fixed(f64 v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string TextTable::sci(f64 v, int precision) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(precision) << v;
  return os.str();
}

std::string TextTable::pct(f64 fraction, int precision) {
  return fixed(fraction * 100.0, precision) + "%";
}

std::string TextTable::render(const std::string& title) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  if (!title.empty()) os << title << '\n';
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c])) << cells[c];
      if (c + 1 < cells.size()) os << "  ";
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (const std::size_t w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string TextTable::render_csv() const {
  auto escape = [](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
    std::string out = "\"";
    for (const char ch : cell) {
      if (ch == '"') out += "\"\"";
      else out.push_back(ch);
    }
    out += "\"";
    return out;
  };
  std::ostringstream os;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << escape(headers_[c]);
    if (c + 1 < headers_.size()) os << ',';
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << escape(row[c]);
      if (c + 1 < row.size()) os << ',';
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace srsr
