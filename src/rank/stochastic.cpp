#include "rank/stochastic.hpp"

#include <algorithm>
#include <cmath>

#include "obs/stage_timer.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace srsr::rank {

namespace {
constexpr f64 kRowSumTolerance = 1e-9;
// Below this many entries the per-chunk bookkeeping of the parallel
// transpose costs more than it saves.
constexpr u64 kParallelTransposeMinEntries = u64{1} << 17;
}

StochasticMatrix::StochasticMatrix(std::vector<u64> offsets,
                                   std::vector<NodeId> cols,
                                   std::vector<f64> weights)
    : StochasticMatrix(std::move(offsets), std::move(cols), std::move(weights),
                       false) {}

StochasticMatrix::StochasticMatrix(std::vector<u64> offsets,
                                   std::vector<NodeId> cols,
                                   std::vector<f64> weights,
                                   bool skip_validation)
    : offsets_(std::move(offsets)),
      cols_(std::move(cols)),
      weights_(std::move(weights)) {
  SRSR_CHECK(!offsets_.empty() && offsets_.front() == 0 &&
                 offsets_.back() == cols_.size() &&
                 cols_.size() == weights_.size(),
             "StochasticMatrix: inconsistent CSR arrays");
  // Sortedness detection (one cheap pass): weight() binary-searches
  // sorted rows, scans unsorted ones.
  for (NodeId r = 0; r < num_rows() && rows_sorted_; ++r) {
    for (u64 i = offsets_[r] + 1; i < offsets_[r + 1]; ++i) {
      if (cols_[i] <= cols_[i - 1]) {
        rows_sorted_ = false;
        break;
      }
    }
  }
  if (skip_validation) return;
  const NodeId n = num_rows();
  for (NodeId r = 0; r < n; ++r) {
    SRSR_CHECK(offsets_[r] <= offsets_[r + 1],
               "StochasticMatrix: offsets must be monotone");
    f64 sum = 0.0;
    for (u64 i = offsets_[r]; i < offsets_[r + 1]; ++i) {
      SRSR_CHECK(cols_[i] < n, "StochasticMatrix: row ", r, " column ",
                 cols_[i], " out of range (", n, " rows)");
      SRSR_CHECK(std::isfinite(weights_[i]),
                 "StochasticMatrix: row ", r, " has a non-finite weight");
      SRSR_CHECK(weights_[i] >= 0.0, "StochasticMatrix: row ", r,
                 " has negative weight ", weights_[i]);
      sum += weights_[i];
    }
    SRSR_CHECK(sum <= 1.0 + kRowSumTolerance, "StochasticMatrix: row ", r,
               " sums to ", sum, ", expected <= 1 (row-stochastic contract)");
  }
}

StochasticMatrix StochasticMatrix::uniform_from_graph(const graph::Graph& g) {
  std::vector<u64> offsets(g.offsets().begin(), g.offsets().end());
  std::vector<NodeId> cols(g.targets().begin(), g.targets().end());
  std::vector<f64> weights(cols.size());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const u64 d = g.out_degree(u);
    const f64 w = d == 0 ? 0.0 : 1.0 / static_cast<f64>(d);
    for (u64 i = offsets[u]; i < offsets[u + 1]; ++i) weights[i] = w;
  }
  return StochasticMatrix(std::move(offsets), std::move(cols),
                          std::move(weights), true);
}

StochasticMatrix StochasticMatrix::from_rows(
    NodeId n, const std::vector<std::vector<std::pair<NodeId, f64>>>& rows) {
  SRSR_CHECK(rows.size() == n,
             "StochasticMatrix::from_rows: row count mismatch");
  std::vector<u64> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeId> cols;
  std::vector<f64> weights;
  for (NodeId r = 0; r < n; ++r) {
    f64 total = 0.0;
    for (const auto& [c, w] : rows[r]) {
      SRSR_CHECK(c < n, "StochasticMatrix::from_rows: column out of range");
      SRSR_CHECK(w >= 0.0, "StochasticMatrix::from_rows: negative weight");
      total += w;
    }
    for (const auto& [c, w] : rows[r]) {
      if (total <= 0.0) break;  // dangling row: drop zero-mass entries
      cols.push_back(c);
      weights.push_back(w / total);
    }
    offsets[r + 1] = cols.size();
  }
  return StochasticMatrix(std::move(offsets), std::move(cols),
                          std::move(weights), true);
}

f64 StochasticMatrix::weight(NodeId r, NodeId c) const {
  SRSR_CHECK(r < num_rows(), "StochasticMatrix::weight: row ", r,
             " out of range (", num_rows(), " rows)");
  SRSR_CHECK(c < num_rows(), "StochasticMatrix::weight: column ", c,
             " out of range (", num_rows(), " rows)");
  const auto cs = row_cols(r);
  const auto ws = row_weights(r);
  if (rows_sorted_) {
    const auto it = std::lower_bound(cs.begin(), cs.end(), c);
    if (it != cs.end() && *it == c)
      return ws[static_cast<std::size_t>(it - cs.begin())];
    return 0.0;
  }
  for (std::size_t i = 0; i < cs.size(); ++i)
    if (cs[i] == c) return ws[i];
  return 0.0;
}

f64 StochasticMatrix::row_sum(NodeId r) const {
  SRSR_CHECK(r < num_rows(), "StochasticMatrix::row_sum: row ", r,
             " out of range (", num_rows(), " rows)");
  f64 sum = 0.0;
  for (const f64 w : row_weights(r)) sum += w;
  return sum;
}

std::vector<NodeId> StochasticMatrix::dangling_rows() const {
  std::vector<NodeId> out;
  for (NodeId r = 0; r < num_rows(); ++r)
    if (is_dangling_row(r)) out.push_back(r);
  return out;
}

std::vector<f64> StochasticMatrix::row_deficits() const {
  std::vector<f64> out(num_rows(), 0.0);
  for (NodeId r = 0; r < num_rows(); ++r) {
    const f64 deficit = 1.0 - row_sum(r);
    out[r] = deficit > 0.0 ? deficit : 0.0;
  }
  return out;
}

void StochasticMatrix::left_multiply(std::span<const f64> x,
                                     std::span<f64> y) const {
  SRSR_CHECK(x.size() == num_rows() && y.size() == num_rows(),
             "StochasticMatrix::left_multiply: size mismatch");
  for (f64& v : y) v = 0.0;
  for (NodeId r = 0; r < num_rows(); ++r) {
    const f64 xr = x[r];
    if (xr == 0.0) continue;
    const auto cs = row_cols(r);
    const auto ws = row_weights(r);
    for (std::size_t i = 0; i < cs.size(); ++i) y[cs[i]] += xr * ws[i];
  }
}

StochasticMatrix StochasticMatrix::transpose() const {
  obs::StageTimer stage("rank.transpose");
  const NodeId n = num_rows();
  std::vector<u64> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeId> cols(cols_.size());
  std::vector<f64> weights(weights_.size());

  if (num_entries() < kParallelTransposeMinEntries || num_threads() <= 1) {
    for (const NodeId c : cols_) ++offsets[c + 1];
    for (std::size_t i = 1; i < offsets.size(); ++i)
      offsets[i] += offsets[i - 1];
    std::vector<u64> cursor(offsets.begin(), offsets.end() - 1);
    for (NodeId r = 0; r < n; ++r) {
      for (u64 i = offsets_[r]; i < offsets_[r + 1]; ++i) {
        const u64 slot = cursor[cols_[i]]++;
        cols[slot] = r;
        weights[slot] = weights_[i];
      }
    }
  } else {
    // Parallel path, same output as the serial one: split the rows into
    // chunks, count each chunk's columns independently, then lay the
    // chunks out in order inside every destination row via a serial
    // prefix pass. Entries of a transposed row stay ordered by source
    // row, so the result is deterministic and every row comes out
    // sorted.
    const std::size_t chunks =
        std::min<std::size_t>(num_threads(), 1 + num_entries() / 65536);
    const NodeId rows_per_chunk =
        static_cast<NodeId>((n + chunks - 1) / chunks);
    // counts[ch * n + col]: entries of chunk ch landing in column col;
    // rewritten in place to that chunk's write cursor for the column.
    std::vector<u64> counts(chunks * static_cast<std::size_t>(n), 0);
    parallel_for(0, chunks, [&](std::size_t ch) {
      u64* const mine = counts.data() + ch * static_cast<std::size_t>(n);
      const NodeId lo = static_cast<NodeId>(ch) * rows_per_chunk;
      const NodeId hi = std::min<NodeId>(n, lo + rows_per_chunk);
      for (u64 i = offsets_[lo]; i < offsets_[hi]; ++i) ++mine[cols_[i]];
    });
    u64 running = 0;
    for (NodeId col = 0; col < n; ++col) {
      offsets[col] = running;
      for (std::size_t ch = 0; ch < chunks; ++ch) {
        u64& slot = counts[ch * static_cast<std::size_t>(n) + col];
        const u64 cnt = slot;
        slot = running;
        running += cnt;
      }
    }
    offsets[n] = running;
    parallel_for(0, chunks, [&](std::size_t ch) {
      u64* const cursor = counts.data() + ch * static_cast<std::size_t>(n);
      const NodeId lo = static_cast<NodeId>(ch) * rows_per_chunk;
      const NodeId hi = std::min<NodeId>(n, lo + rows_per_chunk);
      for (NodeId r = lo; r < hi; ++r) {
        for (u64 i = offsets_[r]; i < offsets_[r + 1]; ++i) {
          const u64 slot = cursor[cols_[i]]++;
          cols[slot] = r;
          weights[slot] = weights_[i];
        }
      }
    });
  }

  // The transpose of a stochastic matrix is generally not stochastic;
  // bypass row-sum validation.
  return StochasticMatrix(std::move(offsets), std::move(cols),
                          std::move(weights), true);
}

}  // namespace srsr::rank
