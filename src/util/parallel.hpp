// Thin shared-memory parallel-for layer over OpenMP.
//
// Rank kernels are memory-bound sparse matrix–vector products; the only
// parallel constructs the library needs are a static-partitioned parallel
// for and a sum reduction whose result does not depend on the thread
// count. Wrapping them here keeps OpenMP pragmas out of algorithm code
// and gives a serial fallback when the toolchain lacks OpenMP
// (SRSR_HAVE_OPENMP is set by the build).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/common.hpp"

#if defined(SRSR_HAVE_OPENMP)
#include <omp.h>
#endif

namespace srsr {

/// Number of threads a parallel region will use (1 without OpenMP).
inline int num_threads() {
#if defined(SRSR_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Applies fn(i) for i in [begin, end) with static scheduling. fn must be
/// safe to invoke concurrently for distinct i.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
#if defined(SRSR_HAVE_OPENMP)
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(begin);
       i < static_cast<std::ptrdiff_t>(end); ++i) {
    fn(static_cast<std::size_t>(i));
  }
#else
  for (std::size_t i = begin; i < end; ++i) fn(i);
#endif
}

/// Chunk width of the deterministic reduction. Fixed (never derived
/// from the thread count) so chunk boundaries — and therefore every
/// intermediate rounding — are identical no matter how many threads
/// execute the chunks.
inline constexpr std::size_t kDeterministicSumChunk = 4096;

/// Bit-reproducible parallel sum: fn(i) over [begin, end), identical
/// across runs AND across thread counts (1 thread, 64 threads, or the
/// serial fallback all produce the same f64).
///
/// The range is cut into fixed-width chunks; each chunk is summed
/// serially left-to-right (chunks are data-parallel work items), then
/// the per-chunk partials are combined by a fixed-shape pairwise tree.
/// Both orders depend only on (begin, end), never on the schedule.
/// Costs one O(chunks) scratch vector per call when the range spans
/// more than one chunk; single-chunk ranges take the serial path with
/// no allocation.
template <typename Fn>
f64 parallel_sum_deterministic(std::size_t begin, std::size_t end, Fn&& fn) {
  if (end <= begin) return 0.0;
  const std::size_t n = end - begin;
  if (n <= kDeterministicSumChunk) {
    f64 total = 0.0;
    for (std::size_t i = begin; i < end; ++i) total += fn(i);
    return total;
  }
  const std::size_t chunks =
      (n + kDeterministicSumChunk - 1) / kDeterministicSumChunk;
  std::vector<f64> partial(chunks, 0.0);
  parallel_for(0, chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * kDeterministicSumChunk;
    const std::size_t hi = std::min(end, lo + kDeterministicSumChunk);
    f64 sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += fn(i);
    partial[c] = sum;
  });
  // Fixed-shape pairwise tree: partial[i] += partial[i + stride] for
  // doubling strides — the combine order is a function of `chunks`
  // alone, and the log-depth tree also bounds rounding error better
  // than a linear pass.
  for (std::size_t stride = 1; stride < chunks; stride *= 2)
    for (std::size_t i = 0; i + stride < chunks; i += 2 * stride)
      partial[i] += partial[i + stride];
  return partial[0];
}

}  // namespace srsr
