// Common fundamental types and error-handling helpers shared by every
// srsr module. This header is intentionally tiny: it must be includable
// from the hottest inner loops without dragging in heavy dependencies.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace srsr {

using u8 = std::uint8_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i32 = std::int32_t;
using i64 = std::int64_t;
using f64 = double;

/// Node identifier in a page or source graph. 32 bits: the graphs this
/// library targets (up to a few hundred million nodes) fit comfortably,
/// and halving the id width doubles effective cache/memory bandwidth in
/// the rank kernels (CSR adjacency is the dominant allocation).
using NodeId = u32;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Exception thrown on API contract violations (bad arguments, malformed
/// input files, out-of-range ids). Algorithmic code throws this rather
/// than asserting so that library users get a catchable error.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws srsr::Error with `msg` when `cond` is false. It survives only
/// because the benchmark harness under bench/suite, which BENCHMARK.json
/// freezes, still calls it; deleting it would break the benchmark.
/// Nothing else may call it: state a precondition with SRSR_CHECK
/// (util/check.hpp). srsr_lint's `contract` rule enforces this.
inline void check(bool cond, const std::string& msg) {
  if (!cond) throw Error(msg);
}

}  // namespace srsr
