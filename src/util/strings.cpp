#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

#include "util/check.hpp"

namespace srsr {

std::vector<std::string_view> split(std::string_view s,
                                    std::string_view delims) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start < s.size()) {
    const std::size_t end = s.find_first_of(delims, start);
    if (end == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    if (end > start) out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  std::size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

u64 parse_u64(std::string_view s) {
  u64 out = 0;
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  SRSR_CHECK(ec == std::errc() && ptr == end,
             "parse_u64: not an unsigned 64-bit decimal: '", s, "'");
  return out;
}

f64 parse_f64(std::string_view s) {
  const std::string_view t = trim(s);
  SRSR_CHECK(!t.empty(), "parse_f64: empty input");
  f64 out = 0.0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), out);
  SRSR_CHECK(ec == std::errc() && ptr == t.data() + t.size(),
             "parse_f64: malformed number '", s, "'");
  SRSR_CHECK(std::isfinite(out), "parse_f64: non-finite value '", s, "'");
  return out;
}

std::string host_of(std::string_view url) {
  std::string_view rest = trim(url);
  SRSR_CHECK(!rest.empty(), "host_of: empty URL");
  // Strip a scheme if present ("http://", "https://", "ftp://", ...).
  const std::size_t scheme = rest.find("://");
  if (scheme != std::string_view::npos) rest = rest.substr(scheme + 3);
  // Host ends at the first path / query / fragment delimiter.
  const std::size_t end = rest.find_first_of("/?#");
  std::string_view host = (end == std::string_view::npos) ? rest : rest.substr(0, end);
  // Drop userinfo and port.
  const std::size_t at = host.rfind('@');
  if (at != std::string_view::npos) host = host.substr(at + 1);
  const std::size_t colon = host.find(':');
  if (colon != std::string_view::npos) host = host.substr(0, colon);
  SRSR_CHECK(!host.empty(), "host_of: no host in URL '", url, "'");
  return to_lower(host);
}

std::string with_commas(u64 value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

}  // namespace srsr
