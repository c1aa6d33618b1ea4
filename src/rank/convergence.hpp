// Convergence criteria for stationary iterative solvers.
#pragma once

#include <span>

#include "obs/trace.hpp"
#include "util/common.hpp"
#include "util/stats.hpp"

namespace srsr::rank {

enum class Norm { kL1, kL2 };

/// Stop when ||x_{k+1} - x_k||_norm < tolerance, or at max_iterations.
/// The paper's setting (Sec. 6.1): L2 distance of successive Power
/// Method iterations below 1e-9.
struct Convergence {
  Norm norm = Norm::kL2;
  f64 tolerance = 1e-9;
  u32 max_iterations = 1000;
  /// Optional per-iteration trace hook (non-owning; must outlive the
  /// solve). See obs/trace.hpp for the contract every solver honors.
  /// Rides in Convergence so that it reaches every solver config —
  /// including composed ones (TrustRank, spam proximity, SRSR) — for
  /// free. nullptr costs one branch per iteration.
  obs::IterationTrace* trace = nullptr;

  f64 distance(std::span<const f64> a, std::span<const f64> b) const {
    switch (norm) {
      case Norm::kL1:
        return l1_distance(a, b);
      case Norm::kL2:
      default:
        return l2_distance(a, b);
    }
  }
};

}  // namespace srsr::rank
