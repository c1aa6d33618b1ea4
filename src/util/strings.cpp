#include "util/strings.hpp"

#include <algorithm>
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
  std::string out;
  to_lower_into(out, s);
  return out;
}

void to_lower_into(std::string& out, std::string_view s) {
  out.assign(s);
  for (char& c : out)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
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

std::string_view url_host(std::string_view url) noexcept {
  std::string_view rest = trim(url);
  // Strip a scheme if present ("http://", "https://", "ftp://", ...).
  // A scheme's "://" comes before any path, query or fragment, so its
  // '/' is the first of "/?#": a "://" later on ("a.example/r?u=http://b")
  // belongs to the path or query, not to a scheme.
  const std::size_t delim = rest.find_first_of("/?#");
  if (delim != std::string_view::npos && delim > 0 &&
      rest.substr(delim - 1, 3) == "://")
    rest = rest.substr(delim + 2);
  // One pass: the host ends at the first path / query / fragment
  // delimiter, after the last '@' (userinfo) and before the first ':'
  // that follows it (port).
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t colon = std::string_view::npos;
  for (; end < rest.size(); ++end) {
    const char c = rest[end];
    if (c == '/' || c == '?' || c == '#') break;
    if (c == '@') {
      begin = end + 1;
      colon = std::string_view::npos;
    } else if (c == ':' && colon == std::string_view::npos) {
      colon = end;
    }
  }
  return rest.substr(begin, std::min(end, colon) - begin);
}

std::string host_of(std::string_view url) {
  SRSR_CHECK(!trim(url).empty(), "host_of: empty URL");
  const std::string_view host = url_host(url);
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
