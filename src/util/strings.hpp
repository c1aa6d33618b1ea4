// Small string utilities used by the graph I/O layer and the dataset
// pipeline (URL → host extraction, whitespace tokenizing).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/common.hpp"

namespace srsr {

/// Splits on any run of the characters in `delims`; empty tokens are
/// dropped. Returned views alias `s`.
std::vector<std::string_view> split(std::string_view s,
                                    std::string_view delims = " \t");

/// Strips leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// ASCII lower-casing (URLs / hostnames only; no locale).
std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Parses a non-negative integer: ASCII digits only, no sign or
/// whitespace. Throws srsr::Error on any other input or on overflow.
/// Used by the edge-list readers, where silent garbage-in must not
/// become garbage graph structure.
u64 parse_u64(std::string_view s);

/// Parses a finite double; throws srsr::Error on malformed or trailing
/// input and on values that parse to inf/NaN. The checked counterpart
/// of std::stod for CLI options and data files — an unparseable alpha
/// must fail loudly, not fall through as 0.0 or raise a bare
/// std::invalid_argument with no context.
f64 parse_f64(std::string_view s);

/// Extracts the host component of a URL, lower-cased:
///   "HTTP://WWW.Example.com:8080/a/b?q" -> "www.example.com"
///   "example.org/page"                  -> "example.org"
/// This is the paper's source-assignment function (Sec. 6.1: "we
/// extracted the host information for each page URL and assigned pages
/// to sources based on this host information"). Throws on strings with
/// no plausible host.
std::string host_of(std::string_view url);

/// Formats with thousands separators, e.g. 12554332 -> "12,554,332"
/// (used when printing Table 1-style summaries).
std::string with_commas(u64 value);

}  // namespace srsr
