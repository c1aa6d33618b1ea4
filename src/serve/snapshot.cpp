#include "serve/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "obs/span.hpp"
#include "obs/stage_timer.hpp"
#include "util/check.hpp"

namespace srsr::serve {

namespace {

constexpr u64 kFnvOffset = 1469598103934665603ull;
constexpr u64 kFnvPrime = 1099511628211ull;

u64 fnv1a_u64(u64 h, u64 v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

/// Checksum of the score payload (count + every score's bit pattern).
/// The epoch is folded in separately at stamp time.
u64 payload_checksum(std::span<const f64> scores) {
  u64 h = fnv1a_u64(kFnvOffset, scores.size());
  for (const f64 v : scores) h = fnv1a_u64(h, std::bit_cast<u64>(v));
  return h;
}

}  // namespace

RankSnapshot::RankSnapshot(std::vector<f64> scores, graph::Hosts hosts,
                           SnapshotMeta meta)
    : scores_(std::move(scores)),
      hosts_(std::move(hosts).resolve(num_sources(), "RankSnapshot")),
      meta_(std::move(meta)), payload_hash_(payload_checksum(scores_)),
      checksum_(fnv1a_u64(payload_hash_, meta_.epoch)) {
  build_order(nullptr, {});
}

RankSnapshot::RankSnapshot(std::vector<f64> scores, graph::Hosts hosts,
                           SnapshotMeta meta, const RankSnapshot& previous,
                           std::span<const NodeId> changed)
    : scores_(std::move(scores)),
      hosts_(std::move(hosts).resolve(num_sources(), "RankSnapshot")),
      meta_(std::move(meta)), payload_hash_(payload_checksum(scores_)),
      checksum_(fnv1a_u64(payload_hash_, meta_.epoch)) {
  SRSR_CHECK(previous.num_sources() <= num_sources(),
             "RankSnapshot: previous epoch has ", previous.num_sources(),
             " sources, this one ", num_sources());
  build_order(&previous, changed);
}

void RankSnapshot::build_order(const RankSnapshot* previous,
                               std::span<const NodeId> changed) {
  const NodeId n = num_sources();
  const auto before = [&](NodeId a, NodeId b) {
    if (scores_[a] != scores_[b]) return scores_[a] > scores_[b];
    return a < b;
  };
  // fresh: rows sorted afresh — the changed ones and those `previous`
  // lacks (every row without one). kept: previous's other rows, in its
  // order.
  const NodeId old_n = previous ? previous->num_sources() : 0;
  std::vector<u8> is_fresh(n, 0);
  for (const NodeId s : changed) {
    SRSR_CHECK(s < n, "RankSnapshot: changed row ", s, " out of range");
    is_fresh[s] = 1;
  }
  std::fill(is_fresh.begin() + old_n, is_fresh.end(), u8{1});
  std::vector<NodeId> fresh;
  for (NodeId s = 0; s < n; ++s)
    if (is_fresh[s]) fresh.push_back(s);
  std::vector<NodeId> kept;
  if (previous) {
    kept.reserve(n - fresh.size());
    for (const NodeId s : previous->order_)
      if (!is_fresh[s]) kept.push_back(s);
  }
  // Insertion sort: the kept rows' scores all moved by one shared
  // rescale, which keeps their order except inside runs of (new or old)
  // rounding ties, so this is a linear pass plus a few swaps.
  for (std::size_t i = 1; i < kept.size(); ++i) {
    const NodeId s = kept[i];
    std::size_t j = i;
    for (; j > 0 && before(s, kept[j - 1]); --j) kept[j] = kept[j - 1];
    kept[j] = s;
  }
  std::sort(fresh.begin(), fresh.end(), before);
  order_.resize(n);
  std::merge(kept.begin(), kept.end(), fresh.begin(), fresh.end(),
             order_.begin(), before);
  rank_.resize(n);
  for (NodeId pos = 0; pos < n; ++pos)
    rank_[order_[pos]] = static_cast<u32>(pos) + 1;
}

std::span<const NodeId> RankSnapshot::top(u32 k) const {
  const std::size_t count = std::min<std::size_t>(k, order_.size());
  return std::span<const NodeId>(order_.data(), count);
}

bool RankSnapshot::verify_checksum() const {
  return checksum_ == fnv1a_u64(payload_checksum(scores_), meta_.epoch);
}

void RankSnapshot::stamp_epoch(u64 epoch) {
  meta_.epoch = epoch;
  checksum_ = fnv1a_u64(payload_hash_, epoch);
}

RankSnapshot make_snapshot(const core::SpamResilientSourceRank& model,
                           std::span<const f64> kappa, graph::Hosts hosts,
                           const SnapshotBuild& build) {
  obs::Span span("serve.snapshot_build");
  obs::StageTimer stage("serve.snapshot_build");
  rank::RankResult result = model.rank(kappa);

  SnapshotMeta meta;
  meta.kappa_policy = build.policy;
  meta.solver =
      model.config().solver == core::SolverKind::kPower ? "power" : "jacobi";
  meta.iterations = result.iterations;
  meta.residual = result.residual;
  meta.converged = result.converged;
  meta.solve_seconds = result.seconds;
  meta.kappa_mass = std::accumulate(kappa.begin(), kappa.end(), 0.0);
  return RankSnapshot(std::move(result.scores), std::move(hosts),
                      std::move(meta));
}

}  // namespace srsr::serve
